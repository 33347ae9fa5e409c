/* Compiled kernels of the simulator, as one CPython extension module
 * (loaded by _fastfill.py): the per-event flow-store operations of
 * repro.machine.contention.FluidNetwork, max-min progressive filling
 * included, and the discrete-event engine's event queue with its drain
 * loop (repro.sim.events).
 *
 * The filling loop is a transliteration of the NumPy round loop in
 * bandwidth.py (the reference the kernel-less build runs): every
 * floating-point operation is performed in the same order on the same
 * IEEE-754 doubles, and every reduction used is order-independent
 * (min / boolean-or / integer counts), so the computed rates are
 * bit-identical to the NumPy path.  Compile WITHOUT -ffast-math and
 * with -ffp-contract=off: fused multiply-adds or reassociation would
 * break that equivalence.
 *
 * The module's one function is the engine's flow start (METH_FASTCALL,
 * so a call converts only its scalar arguments):
 *
 *   begin(st, t, key, wire, rate_cap, src, dst, routes, off, length)
 *       -> bool   advance to t (reallocating first on a dirty store),
 *                 append one flow; False, changing nothing, when the
 *                 slot columns are full
 *
 * ``st`` is the network's FlowStore: the flow store's scalar state
 * (live count, clock, dirty and changed flags, memoized next
 * completion, arm generation), its pointer table, one address per
 * buffer in the order of the TABLE tuple this module exports (the T_*
 * enum below), and its optional rate observer, called after every
 * reallocation.  ``routes`` is the address of the fat tree's flat route
 * table (FatTree.route_buffer), passed per call because that table is
 * shared by every network over the tree and may be reallocated by any
 * of them.  The Python side owns every buffer and keeps the table
 * current across reallocations.
 *
 * The EventQueue type (end of file) is the compiled twin of
 * repro.sim.events.EventQueue: push / pop / peek_time / len, and
 * run(engine), the engine's drain loop, which also runs the network's
 * arm–check–retire cycle on the engine's FlowStore: reallocation,
 * completion scan and retirement have no other compiled caller.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>
#include <math.h>

enum {
    T_LINK_CAPS, T_LINK_SCALES, T_FLOW_PTR, T_CSR, T_RATE_CAP, T_RATE,
    T_SAT_THRESH, T_CAP_THRESH, T_REMAINING, T_COUNTS, T_CAP_LEFT,
    T_ACTIVE, T_TOUCHED, T_WIRE, T_SRCS, T_DSTS, T_KEYS, T_SIZE
};

static const char *const table_names[T_SIZE] = {
    "link_caps", "link_scales", "flow_ptr", "csr_links", "rate_cap", "rate",
    "sat_thresh", "cap_thresh", "remaining", "counts", "cap_left",
    "active", "touched", "wire", "srcs", "dsts", "keys",
};

/* The round loop of recompute(), which has initialized
 * remaining_cap (effective link caps), counts (per-link active-flow
 * counts), rates (0), cap_left (flow caps) and active (1), and collected
 * the distinct links the flows touch into touched[0..ntouched).
 *
 * The round's delta is the minimum of remaining_cap/counts over links
 * with counts > 0 and of cap_left over active flows.  The NumPy path
 * takes, per active flow, the minimum of its path's link increments and
 * its cap_left, then the minimum over flows.  Both minimize the same
 * set of doubles: every link of an active path has counts > 0, and
 * every link with counts > 0 lies on an active path.  min is exact, so
 * delta is bit-identical while reading each touched link once instead
 * of every path entry.
 *
 * On success every flow froze exactly once, so counts — incremented
 * per path entry up front and decremented per path entry on freeze —
 * has returned to all zeros; on failure recompute() restores that. */
static int fill_rounds(
    int64_t nflows,
    const int64_t *flow_ptr,
    const int64_t *flow_links,
    const int64_t *touched,
    int64_t ntouched,
    const double *sat_thresh,
    const double *cap_thresh,
    double *rates,
    double *remaining_cap,
    int64_t *counts,
    double *cap_left,
    uint8_t *active
) {
    int64_t f, l, s, i, round_;
    int64_t remaining = nflows;

    for (round_ = 0; round_ <= nflows; round_++) {
        if (remaining == 0) {
            return 0;
        }
        double delta = INFINITY;
        for (i = 0; i < ntouched; i++) {
            l = touched[i];
            if (counts[l] > 0) {
                double v = remaining_cap[l] / (double)counts[l];
                if (v < delta) {
                    delta = v;
                }
            }
        }
        for (f = 0; f < nflows; f++) {
            if (active[f] && cap_left[f] < delta) {
                delta = cap_left[f];
            }
        }
        if (!isfinite(delta)) {
            return 1;
        }
        for (f = 0; f < nflows; f++) {
            if (active[f]) {
                rates[f] += delta;
                cap_left[f] -= delta;
            }
        }
        /* counts == 0 links would subtract exactly 0.0: skipping them is
         * bit-neutral (x - 0.0 == x for every IEEE double). */
        for (i = 0; i < ntouched; i++) {
            l = touched[i];
            if (counts[l] > 0) {
                remaining_cap[l] -= (double)counts[l] * delta;
            }
        }
        /* Freeze flows that hit their cap or whose path saturated a
         * link.  counts is only read by the NEXT round, so decrementing
         * it inside the freeze scan matches the NumPy path's
         * subtract-after-the-mask exactly. */
        int64_t frozen = 0;
        for (f = 0; f < nflows; f++) {
            if (!active[f]) {
                continue;
            }
            int hit = cap_left[f] <= cap_thresh[f];
            if (!hit) {
                for (s = flow_ptr[f]; s < flow_ptr[f + 1]; s++) {
                    if (remaining_cap[flow_links[s]] <= sat_thresh[flow_links[s]]) {
                        hit = 1;
                        break;
                    }
                }
            }
            if (hit) {
                active[f] = 0;
                frozen++;
                remaining--;
                for (s = flow_ptr[f]; s < flow_ptr[f + 1]; s++) {
                    counts[flow_links[s]]--;
                }
            }
        }
        if (frozen == 0) {
            return 2;
        }
    }
    return remaining == 0 ? 0 : 3;
}

/* Fused rate reallocation: per-link flow counts, switch-contention
 * penalty, freeze thresholds and the progressive fill.  Mirrors
 * FluidNetwork._recompute + max_min_rates (check=False) with the same
 * operation order on the same doubles:
 *
 *   counts  = bincount(flow_links)
 *   penalty = min(max(counts - 1, 0) * contention_c + 1.0, contention_cap)
 *   eff     = link_caps / penalty            (skipped when c <= 0)
 *   eff     = eff * link_scales[l]           (when scales != NULL)
 *   sat     = eff * 1e-12 + 1e-15
 *   capt    = flow_caps * 1e-12 + 1e-15
 *
 * 1e-12 is bandwidth._REL_EPS.  Relies on the all-zero counts
 * invariant (the workspace allocates counts zeroed; every fill
 * restores it), so only the links on this wave's paths are visited —
 * the rest of the per-link arrays hold stale values nothing reads. */
static int recompute(void **p, int64_t nflows, double contention_c,
                     double contention_cap) {
    const double *link_caps = p[T_LINK_CAPS];
    const double *link_scales = p[T_LINK_SCALES];
    const int64_t *flow_ptr = p[T_FLOW_PTR];
    const int64_t *flow_links = p[T_CSR];
    const double *flow_caps = p[T_RATE_CAP];
    double *rates = p[T_RATE];
    double *sat_thresh = p[T_SAT_THRESH];
    double *cap_thresh = p[T_CAP_THRESH];
    double *remaining_cap = p[T_REMAINING];
    int64_t *counts = p[T_COUNTS];
    double *cap_left = p[T_CAP_LEFT];
    uint8_t *active = p[T_ACTIVE];
    int64_t *touched = p[T_TOUCHED];
    int64_t f, l, s, i, ntouched = 0;

    for (s = 0; s < flow_ptr[nflows]; s++) {
        l = flow_links[s];
        if (counts[l]++ == 0) {
            touched[ntouched++] = l;
        }
    }
    for (i = 0; i < ntouched; i++) {
        l = touched[i];
        double cap = link_caps[l];
        if (contention_c > 0.0) {
            int64_t pen = counts[l] - 1;
            if (pen < 0) {
                pen = 0;
            }
            double pf = (double)pen * contention_c;
            pf = pf + 1.0;
            if (pf > contention_cap) {
                pf = contention_cap;
            }
            cap = cap / pf;
        }
        if (link_scales != NULL) {
            cap = cap * link_scales[l];
        }
        remaining_cap[l] = cap;
        sat_thresh[l] = cap * 1e-12 + 1e-15;
    }
    for (f = 0; f < nflows; f++) {
        cap_thresh[f] = flow_caps[f] * 1e-12 + 1e-15;
        rates[f] = 0.0;
        cap_left[f] = flow_caps[f];
        active[f] = 1;
    }
    int rc = fill_rounds(nflows, flow_ptr, flow_links, touched, ntouched,
                         sat_thresh, cap_thresh, rates, remaining_cap, counts,
                         cap_left, active);
    if (rc == 0) {
        return 0;
    }
    /* The NumPy path's RuntimeError, after restoring the all-zero
     * counts invariant. */
    for (i = 0; i < ntouched; i++) {
        counts[touched[i]] = 0;
    }
    PyErr_SetString(
        PyExc_RuntimeError,
        rc == 1 ? "unbounded flow: a path has no finite constraint"
        : rc == 2 ? "progressive filling made no progress"
        : "max-min allocation failed to converge");
    return -1;
}

/* Drain every flow by dt at its current rate, clamping at zero — the C
 * twin of FluidNetwork.advance_to's `wire -= rate*dt; maximum(wire, 0)`. */
static void advance(void **p, int64_t nflows, double dt) {
    double *wire = p[T_WIRE];
    const double *rate = p[T_RATE];
    int64_t f;
    for (f = 0; f < nflows; f++) {
        double w = wire[f] - rate[f] * dt;
        wire[f] = w > 0.0 ? w : 0.0;
    }
}

/* Earliest-completion scan with the NumPy scan's precedence: a done
 * flow first (offset 0.0), a zero-rate flow second (returns 0: the
 * caller names the stall), else *best = the minimum of wire/rate. */
static int scan(void **p, int64_t nflows, double done_eps, double *best) {
    const double *wire = p[T_WIRE];
    const double *rate = p[T_RATE];
    int stalled = 0;
    int64_t f;
    *best = INFINITY;
    for (f = 0; f < nflows; f++) {
        if (wire[f] <= done_eps) {
            *best = 0.0;
            return 1;
        }
        if (rate[f] <= 0.0) {
            stalled = 1;
        } else {
            double v = wire[f] / rate[f];
            if (v < *best) {
                *best = v;
            }
        }
    }
    return !stalled;
}

/* ------------------------------------------------------------------
 * The flow store: the scalar state of a FluidNetwork's flow columns
 * (live count, clock, dirty and changed flags, memoized next
 * completion, arm generation) and its pointer table, in one object
 * that FluidNetwork and the kernels both read and write.  ``keys`` is
 * the network's set of live keys (FluidNetwork._key_set): begin adds to
 * it and retire_at discards from it.  ``buffers`` keeps the arrays the
 * table points into alive for as long as the store is.  ``observer``,
 * when not None, is called as observer(now) after every reallocation
 * (FluidNetwork._observe, which holds the network: hence the GC
 * support). */

typedef struct {
    PyObject_HEAD
    void *tab[T_SIZE];
    PyObject *buffers;
    PyObject *keys;
    PyObject *observer;
    double contention;
    double contention_cap;
    double done_eps;
    long long cap;
    long long n;
    double now;
    double next;
    char has_next;
    char dirty;
    char changed;
    unsigned long long gen;
    unsigned long long allocations;
} StoreObject;

static PyTypeObject StoreType;

static PyObject *store_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    PyObject *keys;
    double c, ccap, eps;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "FlowStore() takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O!ddd:FlowStore", &PySet_Type, &keys, &c,
                          &ccap, &eps)) {
        return NULL;
    }
    StoreObject *st = (StoreObject *)type->tp_alloc(type, 0);
    if (st == NULL) {
        return NULL;
    }
    Py_INCREF(keys);
    st->keys = keys;
    st->contention = c;
    st->contention_cap = ccap;
    st->done_eps = eps;
    return (PyObject *)st;
}

static int store_traverse(StoreObject *st, visitproc visit, void *arg) {
    Py_VISIT(st->buffers);
    Py_VISIT(st->keys);
    Py_VISIT(st->observer);
    return 0;
}

static int store_clear(StoreObject *st) {
    memset(st->tab, 0, sizeof(st->tab));
    st->n = st->cap = 0;
    Py_CLEAR(st->buffers);
    Py_CLEAR(st->keys);
    Py_CLEAR(st->observer);
    return 0;
}

static void store_dealloc(StoreObject *st) {
    PyObject_GC_UnTrack(st);
    store_clear(st);
    Py_TYPE(st)->tp_free((PyObject *)st);
}

/* set_table(addresses, buffers, capacity): point the kernels at a new
 * set of column arrays (one address per TABLE entry, 0 for an absent
 * one) holding room for ``capacity`` flows. */
static PyObject *store_set_table(StoreObject *st, PyObject *const *args,
                                 Py_ssize_t nargs) {
    void *tab[T_SIZE];
    long long cap;
    if (nargs != 3 || !PyTuple_Check(args[0]) || !PyTuple_Check(args[1])
        || PyTuple_GET_SIZE(args[0]) != T_SIZE) {
        PyErr_SetString(PyExc_TypeError,
                        "set_table(addresses, buffers, capacity) takes a "
                        "tuple of one address per TABLE entry");
        return NULL;
    }
    cap = PyLong_AsLongLong(args[2]);
    if (cap == -1 && PyErr_Occurred()) {
        return NULL;
    }
    for (int i = 0; i < T_SIZE; i++) {
        tab[i] = PyLong_AsVoidPtr(PyTuple_GET_ITEM(args[0], i));
        if (tab[i] == NULL && PyErr_Occurred()) {
            return NULL;
        }
    }
    memcpy(st->tab, tab, sizeof(tab));
    st->cap = cap;
    Py_INCREF(args[1]);
    Py_XSETREF(st->buffers, args[1]);
    Py_RETURN_NONE;
}

static PyObject *store_get_next(StoreObject *st, void *unused) {
    if (!st->has_next) {
        Py_RETURN_NONE;
    }
    return PyFloat_FromDouble(st->next);
}

static int store_set_next(StoreObject *st, PyObject *value, void *unused) {
    if (value == NULL || value == Py_None) {
        st->has_next = 0;
        return 0;
    }
    double v = PyFloat_AsDouble(value);
    if (v == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    st->next = v;
    st->has_next = 1;
    return 0;
}

static PyMemberDef store_members[] = {
    {"n", T_LONGLONG, offsetof(StoreObject, n), 0, "flows in flight"},
    {"now", T_DOUBLE, offsetof(StoreObject, now), 0,
     "time the flows are drained up to"},
    {"dirty", T_BOOL, offsetof(StoreObject, dirty), 0,
     "rates are stale: the flow set changed since the last reallocation"},
    {"changed", T_BOOL, offsetof(StoreObject, changed), 0,
     "the flow set changed since the last arm"},
    {"gen", T_ULONGLONG, offsetof(StoreObject, gen), 0,
     "arm generation: a net check armed under an older one is stale"},
    {"allocations", T_ULONGLONG, offsetof(StoreObject, allocations), READONLY,
     "reallocations run by the compiled drain loop and begin"},
    {"observer", T_OBJECT, offsetof(StoreObject, observer), 0,
     "observer(now), called after every reallocation, or None"},
    {NULL},
};

static PyGetSetDef store_getset[] = {
    {"next", (getter)store_get_next, (setter)store_set_next,
     "memoized absolute time of the next completion, or None", NULL},
    {NULL},
};

static PyMethodDef store_methods[] = {
    {"set_table", (PyCFunction)(void (*)(void))store_set_table, METH_FASTCALL,
     "set_table(addresses, buffers, capacity): repoint the column table."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject StoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "fastfill.FlowStore",
    .tp_doc = "FlowStore(keys, contention, contention_cap, done_eps): the "
              "scalar state and column table of one fluid network.",
    .tp_basicsize = sizeof(StoreObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = store_new,
    .tp_free = PyObject_GC_Del,
    .tp_dealloc = (destructor)store_dealloc,
    .tp_traverse = (traverseproc)store_traverse,
    .tp_clear = (inquiry)store_clear,
    .tp_members = store_members,
    .tp_getset = store_getset,
    .tp_methods = store_methods,
};

/* Reallocate every rate (none on an empty store); the memoized
 * completion goes with them.  Then the observer, if any, sees the new
 * rates; an exception it raises propagates. */
static int store_recompute(StoreObject *st) {
    if (st->n > 0
        && recompute(st->tab, st->n, st->contention, st->contention_cap) < 0) {
        return -1;
    }
    st->dirty = 0;
    st->has_next = 0;
    if (st->observer == NULL || st->observer == Py_None) {
        return 0;
    }
    PyObject *now = PyFloat_FromDouble(st->now);
    if (now == NULL) {
        return -1;
    }
    PyObject *r = PyObject_CallOneArg(st->observer, now);
    Py_DECREF(now);
    if (r == NULL) {
        return -1;
    }
    Py_DECREF(r);
    return 0;
}

/* advance_to's ValueError for a clock that would move back. */
static int check_forward(StoreObject *st, double t) {
    if (t >= st->now - 1e-12) {
        return 0;
    }
    PyObject *pt = PyFloat_FromDouble(t);
    PyObject *pn = PyFloat_FromDouble(st->now);
    if (pt != NULL && pn != NULL) {
        PyErr_Format(PyExc_ValueError, "time moved backwards: %R < %R", pt, pn);
    }
    Py_XDECREF(pt);
    Py_XDECREF(pn);
    return -1;
}

/* FluidNetwork.earliest_completion on a non-empty store, for
 * native_arm: reallocate if dirty, else reuse the memoized instant
 * (completion instants do not move while the flow set and rates are
 * fixed; a flow the clock has overshot finishes "now"), else scan and
 * memoize.  0 with *t set, 1 on a stall (the caller names it), -1 with
 * an exception set. */
static int earliest(StoreObject *st, double *t) {
    double best;
    if (st->dirty) {
        if (store_recompute(st) < 0) {
            return -1;
        }
    } else if (st->has_next) {
        *t = st->now > st->next ? st->now : st->next;
        return 0;
    }
    if (!scan(st->tab, st->n, st->done_eps, &best)) {
        return 1;
    }
    st->next = st->now + best;
    st->has_next = 1;
    *t = st->next;
    return 0;
}

/* FluidNetwork.pop_completed_keys on a non-empty store, rates current
 * if t > now, for net_check: drain to t, retire every drained flow and
 * compact the slot columns, the CSR incidence and the object key column
 * in place, preserving insertion order.  The completed keys come back
 * as a list in slot order; the list takes over the key column's
 * references, survivors' references move with them, and the vacated
 * tail slots are reset to None, so no key's refcount changes and no
 * retired key stays reachable from the column. */
static PyObject *retire_at(StoreObject *st, double t) {
    void **p = st->tab;
    int64_t n = st->n, f, s, ndone = 0;
    double eps = st->done_eps;
    double *wire = p[T_WIRE];
    if (check_forward(st, t) < 0) {
        return NULL;
    }
    if (t > st->now) {
        advance(p, n, t - st->now);
    }
    for (f = 0; f < n; f++) {
        if (wire[f] <= eps) {
            ndone++;
        }
    }
    PyObject *done = PyList_New((Py_ssize_t)ndone);
    if (done == NULL) {
        return NULL;
    }
    if (t > st->now) {
        st->now = t;
    }
    if (ndone == 0) {
        return done;
    }
    double *rate = p[T_RATE];
    double *rate_cap = p[T_RATE_CAP];
    int64_t *srcs = p[T_SRCS];
    int64_t *dsts = p[T_DSTS];
    int64_t *csr = p[T_CSR];
    int64_t *ptr = p[T_FLOW_PTR];
    PyObject **keys = p[T_KEYS];
    int64_t w = 0, links_w = 0, d = 0;
    for (f = 0; f < n; f++) {
        if (wire[f] <= eps) {
            PyList_SET_ITEM(done, (Py_ssize_t)d++, keys[f]);
            continue;
        }
        if (w != f) {
            wire[w] = wire[f];
            rate[w] = rate[f];
            rate_cap[w] = rate_cap[f];
            srcs[w] = srcs[f];
            dsts[w] = dsts[f];
            keys[w] = keys[f];
        }
        for (s = ptr[f]; s < ptr[f + 1]; s++) {
            csr[links_w++] = csr[s];
        }
        w++;
        ptr[w] = links_w;
    }
    for (f = w; f < n; f++) {
        Py_INCREF(Py_None);
        keys[f] = Py_None;
    }
    st->n = w;
    st->dirty = 1;
    st->has_next = 0;
    st->changed = 1;
    for (d = 0; d < ndone; d++) {
        if (PySet_Discard(st->keys, PyList_GET_ITEM(done, d)) < 0) {
            Py_DECREF(done);
            return NULL;
        }
    }
    return done;
}

/* ------------------------------------------------------------------
 * Argument conversion.  Each helper returns 0, or -1 with an exception
 * set; the entry points check arity first. */

static int arg_store(PyObject *o, StoreObject **out) {
    if (!Py_IS_TYPE(o, &StoreType)) {
        PyErr_Format(PyExc_TypeError, "expected a FlowStore, got %.100s",
                     Py_TYPE(o)->tp_name);
        return -1;
    }
    *out = (StoreObject *)o;
    return 0;
}

static int arg_ptr(PyObject *o, void ***out) {
    *out = (void **)PyLong_AsVoidPtr(o);
    return (*out == NULL && PyErr_Occurred()) ? -1 : 0;
}

static int arg_i64(PyObject *o, int64_t *out) {
    *out = (int64_t)PyLong_AsLongLong(o);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int arg_f64(PyObject *o, double *out) {
    *out = PyFloat_AsDouble(o);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want) {
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------
 * The entry point. */

/* begin(st, t, key, wire, rate_cap, src, dst, routes, off, length):
 * advance_to(t), then append one flow — the engine's flow start in one
 * call.  A drain on a dirty store reallocates first, as advance_to
 * does, and counts it in allocations.  Returns False, changing nothing,
 * when the slot columns are full (the caller grows them and calls
 * again). */
static PyObject *py_begin(PyObject *mod, PyObject *const *args, Py_ssize_t nargs) {
    StoreObject *st;
    void **routes;
    int64_t src, dst, off, length;
    double t, wire, rate_cap;
    if (check_nargs("begin", nargs, 10) < 0 || arg_store(args[0], &st) < 0
        || arg_f64(args[1], &t) < 0 || arg_f64(args[3], &wire) < 0
        || arg_f64(args[4], &rate_cap) < 0 || arg_i64(args[5], &src) < 0
        || arg_i64(args[6], &dst) < 0 || arg_ptr(args[7], &routes) < 0
        || arg_i64(args[8], &off) < 0 || arg_i64(args[9], &length) < 0
        || check_forward(st, t) < 0) {
        return NULL;
    }
    int64_t slot = st->n;
    if (slot == st->cap) {
        Py_RETURN_FALSE;
    }
    if (t > st->now) {
        if (slot > 0) {
            if (st->dirty) {
                st->allocations++;
                if (store_recompute(st) < 0) {
                    return NULL;
                }
            }
            advance(st->tab, slot, t - st->now);
        }
        st->now = t;
    }
    PyObject *key = args[2];
    if (PySet_Add(st->keys, key) < 0) {
        return NULL;
    }
    void **p = st->tab;
    int64_t *ptr = p[T_FLOW_PTR];
    int64_t used = ptr[slot];
    memcpy((int64_t *)p[T_CSR] + used, (const int64_t *)routes + off,
           (size_t)length * sizeof(int64_t));
    ptr[slot + 1] = used + length;
    ((double *)p[T_WIRE])[slot] = wire;
    ((double *)p[T_RATE])[slot] = 0.0;
    ((double *)p[T_RATE_CAP])[slot] = rate_cap;
    ((int64_t *)p[T_SRCS])[slot] = src;
    ((int64_t *)p[T_DSTS])[slot] = dst;
    PyObject **keys = p[T_KEYS];
    PyObject *old = keys[slot];
    Py_INCREF(key);
    keys[slot] = key;
    Py_XDECREF(old);
    st->n = slot + 1;
    st->dirty = 1;
    st->has_next = 0;
    st->changed = 1;
    Py_RETURN_TRUE;
}

/* ------------------------------------------------------------------
 * Event queue: the compiled twin of repro.sim.events.EventQueue.
 *
 * A binary min-heap of (time, seq, fn, args) entries in one C array,
 * ordered by (time, seq): seq is a per-queue counter, so simultaneous
 * events fire FIFO and fn is never compared.  An entry fires as
 * fn(*args) through vectorcall.  run(engine) is the engine's drain
 * loop, statement for statement the same as EventQueue.run in
 * events.py, with one addition: when the engine hands it a flow store
 * (engine._native_net), the loop runs that network's arm–check–retire
 * cycle itself (see queue_run).
 *
 * Queued handlers are bound methods of the engine, which holds the
 * queue, so the type takes part in cyclic GC: an engine abandoned
 * mid-run with events still queued is collectable. */

/* repro.sim.events._TIME_ATOL: events closer than this to the current
 * instant drain with it (the test suite checks the two agree). */
#define TIME_ATOL 1e-12
/* Tolerance of the event-in-the-past check. */
#define PAST_TOL 1e-9

typedef struct {
    double time;
    uint64_t seq;
    PyObject *fn;   /* handler; for a net check, its FlowStore */
    PyObject *args; /* the handler's argument tuple; NULL for a net check */
    uint64_t gen;   /* a net check's arm generation */
} Event;

typedef struct {
    PyObject_HEAD
    Event *heap;
    Py_ssize_t size;
    Py_ssize_t cap;
    uint64_t seq;
} QueueObject;

static PyObject *str_now, *str_net_changed, *str_arm, *str_native_net,
    *str_flow_complete;

static inline int ev_less(const Event *a, const Event *b) {
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

/* Insert *item (its references now owned by the heap); 0, or -1 with
 * an exception set and nothing taken over. */
static int heap_push(QueueObject *q, const Event *item) {
    if (q->size == q->cap) {
        Py_ssize_t cap = q->cap ? 2 * q->cap : 64;
        Event *h = PyMem_Realloc(q->heap, (size_t)cap * sizeof(Event));
        if (h == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        q->heap = h;
        q->cap = cap;
    }
    /* Sift the new entry up from the end. */
    Event *h = q->heap;
    Py_ssize_t pos = q->size++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!ev_less(item, &h[parent])) {
            break;
        }
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = *item;
    return 0;
}

/* Remove the root into *out; the heap must be non-empty. */
static void heap_pop(QueueObject *q, Event *out) {
    Event *h = q->heap;
    Py_ssize_t n = --q->size, pos = 0, child;
    *out = h[0];
    if (n == 0) {
        return;
    }
    Event item = h[n];
    while ((child = 2 * pos + 1) < n) {
        if (child + 1 < n && ev_less(&h[child + 1], &h[child])) {
            child++;
        }
        if (!ev_less(&h[child], &item)) {
            break;
        }
        h[pos] = h[child];
        pos = child;
    }
    h[pos] = item;
}

static PyObject *queue_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    if (PyTuple_GET_SIZE(args) != 0 || (kwds != NULL && PyDict_GET_SIZE(kwds) != 0)) {
        PyErr_SetString(PyExc_TypeError, "EventQueue() takes no arguments");
        return NULL;
    }
    return type->tp_alloc(type, 0);
}

static int queue_traverse(QueueObject *q, visitproc visit, void *arg) {
    for (Py_ssize_t i = 0; i < q->size; i++) {
        Py_VISIT(q->heap[i].fn);
        Py_VISIT(q->heap[i].args);
    }
    return 0;
}

/* Detach the array before releasing its references: a finalizer run by
 * a decref may push to this queue again. */
static int queue_clear(QueueObject *q) {
    Event *h = q->heap;
    Py_ssize_t n = q->size;
    q->heap = NULL;
    q->size = q->cap = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_DECREF(h[i].fn);
        Py_XDECREF(h[i].args);
    }
    PyMem_Free(h);
    return 0;
}

static void queue_dealloc(QueueObject *q) {
    PyObject_GC_UnTrack(q);
    queue_clear(q);
    Py_TYPE(q)->tp_free((PyObject *)q);
}

static Py_ssize_t queue_len(QueueObject *q) {
    return q->size;
}

static PyObject *queue_push(QueueObject *q, PyObject *const *args,
                            Py_ssize_t nargs) {
    double t;
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError,
                     "push() takes at least 2 arguments (%zd given)", nargs);
        return NULL;
    }
    if (PyFloat_CheckExact(args[0])) {
        t = PyFloat_AS_DOUBLE(args[0]);
    } else if (arg_f64(args[0], &t) < 0) {
        return NULL;
    }
    if (t != t) {
        PyErr_SetString(PyExc_ValueError, "event time is NaN");
        return NULL;
    }
    PyObject *tup = PyTuple_New(nargs - 2);
    if (tup == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 2; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(tup, i - 2, args[i]);
    }
    Event item = {t, q->seq, args[1], tup, 0};
    if (heap_push(q, &item) < 0) {
        Py_DECREF(tup);
        return NULL;
    }
    q->seq++;
    Py_INCREF(args[1]);
    Py_RETURN_NONE;
}

/* A net check pops as (time, store, (gen,)). */
static PyObject *queue_pop(QueueObject *q, PyObject *unused) {
    Event e;
    if (q->size == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty event queue");
        return NULL;
    }
    heap_pop(q, &e);
    PyObject *args = e.args != NULL ? e.args : Py_BuildValue("(K)", e.gen);
    PyObject *res = args == NULL ? NULL : Py_BuildValue("(dOO)", e.time, e.fn, args);
    Py_DECREF(e.fn);
    Py_XDECREF(args);
    return res;
}

static PyObject *queue_peek_time(QueueObject *q, PyObject *unused) {
    if (q->size == 0) {
        Py_RETURN_NONE;
    }
    return PyFloat_FromDouble(q->heap[0].time);
}

/* Set engine.now; 0, or -1 with an exception set. */
static int set_now(PyObject *engine, double now) {
    PyObject *f = PyFloat_FromDouble(now);
    if (f == NULL) {
        return -1;
    }
    int rc = PyObject_SetAttr(engine, str_now, f);
    Py_DECREF(f);
    return rc;
}

/* The Python arm, engine._arm_network_event(); 0, or -1 with an
 * exception set. */
static int python_arm(PyObject *engine) {
    PyObject *r = PyObject_VectorcallMethod(
        str_arm, &engine, 1 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    if (r == NULL) {
        return -1;
    }
    Py_DECREF(r);
    return 0;
}

/* Engine._arm_network_event on the store, after an instant in which the
 * flow set changed: bump the generation and queue a net check at the
 * network's earliest completion (never before now).  After an instant
 * that emptied the network the (empty) reallocation only shows the
 * observer the idle links.  A stall goes to the Python arm, which
 * names the stalled flows in a NetworkStallError. */
static int native_arm(QueueObject *q, StoreObject *st, PyObject *engine,
                      double now) {
    double t = 0.0;
    if (st->n == 0) {
        if (st->dirty && store_recompute(st) < 0) {
            return -1;
        }
    } else {
        if (st->dirty) {
            st->allocations++;
        }
        int rc = earliest(st, &t);
        if (rc != 0) {
            return rc < 0 ? -1 : python_arm(engine);
        }
    }
    st->changed = 0;
    st->gen++;
    if (st->n == 0) {
        return 0;
    }
    Event e = {now > t ? now : t, q->seq, (PyObject *)st, NULL, st->gen};
    if (heap_push(q, &e) < 0) {
        return -1;
    }
    q->seq++;
    Py_INCREF(st);
    return 0;
}

/* Engine._net_check: unless a later arm superseded it, retire every
 * flow drained by now and hand each key to engine._flow_complete. */
static int net_check(StoreObject *st, PyObject *ev_store, uint64_t gen,
                     double now, PyObject *complete) {
    if (ev_store != (PyObject *)st) {
        PyErr_SetString(PyExc_RuntimeError,
                        "net check of a network this run does not drive");
        return -1;
    }
    if (gen != st->gen) {
        return 0; /* stale: the flow set changed since it was armed */
    }
    if (st->n == 0) {
        if (check_forward(st, now) < 0) {
            return -1;
        }
        if (now > st->now) {
            st->now = now;
        }
        return 0;
    }
    if (st->dirty && now > st->now) {
        st->allocations++;
        if (store_recompute(st) < 0) {
            return -1;
        }
    }
    PyObject *done = retire_at(st, now);
    if (done == NULL) {
        return -1;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(done); i++) {
        PyObject *r = PyObject_CallOneArg(complete, PyList_GET_ITEM(done, i));
        if (r == NULL) {
            Py_DECREF(done);
            return -1;
        }
        Py_DECREF(r);
    }
    Py_DECREF(done);
    return 0;
}

/* The drain loop.  With engine._native_net a FlowStore, the network's
 * cycle stays in C (but for an observer's call): after an instant in
 * which the flow set changed the loop arms a net check itself
 * (native_arm), and a popped net check retires in C and calls
 * engine._flow_complete(key) per completed key.  Otherwise (an engine
 * without a store) it calls engine._arm_network_event() when
 * engine._net_changed is set, like the Python loop. */
static PyObject *queue_run(QueueObject *q, PyObject *engine) {
    double now;
    StoreObject *st = NULL;
    PyObject *complete = NULL, *result = NULL;
    PyObject *o = PyObject_GetAttr(engine, str_now);
    if (o == NULL) {
        return NULL;
    }
    int rc = arg_f64(o, &now);
    Py_DECREF(o);
    if (rc < 0) {
        return NULL;
    }
    o = PyObject_GetAttr(engine, str_native_net);
    if (o == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError)) {
            return NULL;
        }
        PyErr_Clear();
    } else if (Py_IS_TYPE(o, &StoreType)) {
        st = (StoreObject *)o;
        complete = PyObject_GetAttr(engine, str_flow_complete);
        if (complete == NULL) {
            goto done;
        }
    } else {
        Py_DECREF(o);
    }
    while (q->size > 0) {
        double t = q->heap[0].time;
        if (t < now - PAST_TOL) {
            PyObject *pt = PyFloat_FromDouble(t);
            PyObject *pn = PyFloat_FromDouble(now);
            if (pt != NULL && pn != NULL) {
                PyErr_Format(PyExc_RuntimeError, "event in the past: %R < %R",
                             pt, pn);
            }
            Py_XDECREF(pt);
            Py_XDECREF(pn);
            goto done;
        }
        if (t > now) {
            now = t;
            if (set_now(engine, now) < 0) {
                goto done;
            }
        }
        /* Drain the instant, cascades included, in (time, seq) order. */
        double threshold = now + TIME_ATOL;
        while (q->size > 0 && q->heap[0].time <= threshold) {
            Event e;
            heap_pop(q, &e);
            if (e.args == NULL) {
                rc = net_check(st, e.fn, e.gen, now, complete);
                Py_DECREF(e.fn);
                if (rc < 0) {
                    goto done;
                }
                continue;
            }
            PyObject *r = PyObject_Vectorcall(
                e.fn, ((PyTupleObject *)e.args)->ob_item,
                (size_t)PyTuple_GET_SIZE(e.args), NULL);
            Py_DECREF(e.fn);
            Py_DECREF(e.args);
            if (r == NULL) {
                goto done;
            }
            Py_DECREF(r);
        }
        if (st != NULL) {
            if (st->changed && native_arm(q, st, engine, now) < 0) {
                goto done;
            }
            continue;
        }
        o = PyObject_GetAttr(engine, str_net_changed);
        if (o == NULL) {
            goto done;
        }
        rc = PyObject_IsTrue(o);
        Py_DECREF(o);
        if (rc < 0 || (rc && python_arm(engine) < 0)) {
            goto done;
        }
    }
    Py_INCREF(Py_None);
    result = Py_None;
done:
    Py_XDECREF(complete);
    Py_XDECREF(st);
    return result;
}

static PyMethodDef queue_methods[] = {
    {"push", (PyCFunction)(void (*)(void))queue_push, METH_FASTCALL,
     "push(time, fn, *args): schedule fn(*args) at simulated time."},
    {"pop", (PyCFunction)queue_pop, METH_NOARGS,
     "Remove and return the earliest (time, fn, args)."},
    {"peek_time", (PyCFunction)queue_peek_time, METH_NOARGS,
     "Timestamp of the earliest pending event, or None when empty."},
    {"run", (PyCFunction)queue_run, METH_O,
     "run(engine): drain every event, advancing engine.now instant by "
     "instant and arming the network after each one.  Nothing but this "
     "loop writes engine.now."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods queue_as_sequence = {
    .sq_length = (lenfunc)queue_len,
};

static PyTypeObject QueueType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "fastfill.EventQueue",
    .tp_doc = "Compiled min-heap of timestamped calls with FIFO tie-breaking.",
    .tp_basicsize = sizeof(QueueObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = queue_new,
    .tp_free = PyObject_GC_Del,
    .tp_dealloc = (destructor)queue_dealloc,
    .tp_traverse = (traverseproc)queue_traverse,
    .tp_clear = (inquiry)queue_clear,
    .tp_as_sequence = &queue_as_sequence,
    .tp_methods = queue_methods,
};

/* ------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"begin", (PyCFunction)(void (*)(void))py_begin, METH_FASTCALL,
     "advance_to(t) and append one flow; False if the slot columns are "
     "full."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "fastfill",
    "Compiled fluid-network kernel and event queue (see repro.machine._fastfill).",
    -1, methods,
};

PyMODINIT_FUNC PyInit_fastfill(void) {
    if (PyType_Ready(&QueueType) < 0 || PyType_Ready(&StoreType) < 0) {
        return NULL;
    }
    str_now = PyUnicode_InternFromString("now");
    str_net_changed = PyUnicode_InternFromString("_net_changed");
    str_arm = PyUnicode_InternFromString("_arm_network_event");
    str_native_net = PyUnicode_InternFromString("_native_net");
    str_flow_complete = PyUnicode_InternFromString("_flow_complete");
    if (str_now == NULL || str_net_changed == NULL || str_arm == NULL
        || str_native_net == NULL || str_flow_complete == NULL) {
        return NULL;
    }
    PyObject *m = PyModule_Create(&moduledef);
    if (m == NULL) {
        return NULL;
    }
    Py_INCREF(&QueueType);
    if (PyModule_AddObject(m, "EventQueue", (PyObject *)&QueueType) < 0) {
        Py_DECREF(&QueueType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&StoreType);
    if (PyModule_AddObject(m, "FlowStore", (PyObject *)&StoreType) < 0) {
        Py_DECREF(&StoreType);
        Py_DECREF(m);
        return NULL;
    }
    PyObject *atol = PyFloat_FromDouble(TIME_ATOL);
    if (atol == NULL || PyModule_AddObject(m, "TIME_ATOL", atol) < 0) {
        Py_XDECREF(atol);
        Py_DECREF(m);
        return NULL;
    }
    PyObject *names = PyTuple_New(T_SIZE);
    if (names == NULL) {
        Py_DECREF(m);
        return NULL;
    }
    for (int i = 0; i < T_SIZE; i++) {
        PyObject *s = PyUnicode_FromString(table_names[i]);
        if (s == NULL) {
            Py_DECREF(names);
            Py_DECREF(m);
            return NULL;
        }
        PyTuple_SET_ITEM(names, i, s);
    }
    if (PyModule_AddObject(m, "TABLE", names) < 0) {
        Py_DECREF(names);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
