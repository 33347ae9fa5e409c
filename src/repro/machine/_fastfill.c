/* Compiled kernels of the simulator, as one CPython extension module
 * (loaded by _fastfill.py): the per-event flow-store operations of
 * repro.machine.contention.FluidNetwork, max-min progressive filling
 * included, and the discrete-event engine's event queue with its drain
 * loop (repro.sim.events).
 *
 * The rate reallocation (recompute) computes the doubles of the NumPy
 * round loop in bandwidth.py (the reference the kernel-less build
 * runs) by the same IEEE-754 operations in the same order, with
 * order-independent reductions only (min / integer counts), so the
 * rates are bit-identical to the NumPy path; it skips only work whose
 * result it already has (per-link memo, one rate and one cap_left per
 * round and cap class, saturation flags, shrinking lists, pruned
 * divisions: the five arguments are at recompute).  Compile WITHOUT
 * -ffast-math and with -ffp-contract=off: fused multiply-adds or
 * reassociation would break that equivalence.
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
 * run(engine, program) also runs the ranks of a schedule: the schedule
 * executor interprets flat rank programs (Engine._run_compiled) with
 * the engine's rendezvous and message timing, starting flows through
 * the same flow start as begin, and calls back into Python only to
 * grow the slot columns and to draw the next block of jitter normals.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>
#include <math.h>

enum {
    T_LINK_CAPS, T_LINK_SCALES, T_FLOW_PTR, T_CSR, T_RATE_CAP, T_RATE,
    T_REMAINING, T_COUNTS, T_LIVE_LINKS, T_LINK_MEMO, T_LINK_SAT,
    T_LIVE_FLOWS, T_FLOW_CLASS, T_CAP_CLASSES, T_WIRE, T_SRCS, T_DSTS,
    T_KEYS, T_SIZE
};

static const char *const table_names[T_SIZE] = {
    "link_caps", "link_scales", "flow_ptr", "csr_links", "rate_cap", "rate",
    "remaining", "counts", "live_links", "link_memo", "link_sat",
    "live_flows", "flow_class", "cap_classes", "wire", "srcs", "dsts",
    "keys",
};

/* A row of FluidNetwork._link_memo (four 8-byte words, zeroed at
 * construction): what recompute() derives from a link's live-flow
 * count, for the count it was last derived at (0: never). */
typedef struct {
    int64_t count;
    double cap;   /* the penalized, scaled capacity */
    double sat;   /* cap * 1e-12 + 1e-15, the saturation threshold */
    double share; /* cap / count, the link's first-round increment */
} LinkMemo;

/* A row of FluidNetwork._cap_classes: the flows of one reallocation
 * whose rate_cap has this bit pattern. */
typedef struct {
    double cap;
    double thresh;  /* cap * 1e-12 + 1e-15 */
    double left;    /* cap - d1 - ... - dk, every member's cap_left */
    int64_t active; /* members not yet frozen */
} CapClass;

static inline uint64_t double_bits(double x) {
    uint64_t u;
    memcpy(&u, &x, sizeof(u));
    return u;
}

/* Rate reallocation of the store's nflows flows: the contention penalty
 * and progressive fill of FluidNetwork._recompute + max_min_rates
 * (check=False), the reference, whose steps are
 *
 *   counts  = bincount(flow_links)
 *   penalty = min(max(counts - 1, 0) * contention_c + 1.0, contention_cap)
 *   eff     = link_caps / penalty            (skipped when c <= 0)
 *   eff     = eff * link_scales[l]           (when scales != NULL)
 *   sat     = eff * 1e-12 + 1e-15;  capt = flow_caps * 1e-12 + 1e-15
 *   remaining = eff, rates = 0, cap_left = flow_caps, every flow active
 *   per round, until no flow is active:
 *     delta = min over active flows of cap_left and of remaining/counts
 *             over the flow's path
 *     rates += delta and cap_left -= delta on active flows
 *     remaining -= counts * delta
 *     freeze the active flows with cap_left <= capt or a path link with
 *       remaining <= sat, and subtract their paths from counts
 *
 * (1e-12 is bandwidth._REL_EPS).  Every double this computes is the one
 * the reference computes, by the same IEEE operations in the same
 * order, and every reduction is order-free (min, integer counts), so
 * the rates are bit-identical.  It does fewer operations:
 *
 * 1. Memo.  eff, sat and the first-round share eff / counts depend only
 *    on the link's count at the start (link_caps, link_scales and the
 *    contention constants are fixed for a network's life), so each
 *    LinkMemo row keeps them for the last count its link had and is
 *    rederived only when the count differs.  In round 1 remaining ==
 *    eff, so the links' increments are their memoized shares.
 * 2. One rate per round.  An active flow's rate is 0.0 + d1 + ... + dk,
 *    added in round order, so every flow frozen in round k gets the
 *    same R_k, accumulated once per round and stored at the freeze.
 * 3. Cap classes.  Flows whose rate_cap has one bit pattern start with
 *    one cap_left and capt and lose the same delta per round, so one
 *    CapClass row carries them: cap_left's minimum, subtraction and
 *    freeze test run per class.  A reallocation has at most nflows
 *    classes and the table has a row per flow slot.
 * 4. Pruning.  delta is a minimum, so a link whose increment cannot go
 *    below the running one may skip its division: with 0 < delta < inf
 *    and R > delta * c * (1 + 2**-50) (R the link's remaining, c its
 *    count), R lies above fl(delta * c), a double above a rounded
 *    product lies above the exact product, so R / c > delta and, as
 *    rounding is monotone and delta a double, fl(R / c) >= delta.
 * 5. Saturation flags and shrinking lists.  Only links with active
 *    flows (counts > 0) change, and those are the links of the active
 *    paths, so the reference's freeze test reads links updated in this
 *    round; the update pass flags each link whose remaining fell to
 *    sat (one byte per link), and the freeze pass reads the flags of a
 *    path only in a round where some link saturated.  A flagged link
 *    has no active flow after the freeze pass.  The pass after it drops
 *    links without active flows (their update would be x - 0.0 == x),
 *    clearing their flags, and computes the next round's link minimum;
 *    the freeze pass drops frozen flows.
 *
 * counts and link_sat hold all zeros between calls (both are allocated
 * zeroed and every call restores that), so only the links on this
 * reallocation's paths are visited; the other per-link entries hold
 * stale values nothing reads.  Returns the number
 * of fill rounds, or -1 with the reference's RuntimeError set. */
static int64_t recompute(void **p, int64_t nflows, double contention_c,
                         double contention_cap) {
    const double *link_caps = p[T_LINK_CAPS];
    const double *link_scales = p[T_LINK_SCALES];
    const int64_t *flow_ptr = p[T_FLOW_PTR];
    const int64_t *flow_links = p[T_CSR];
    const double *flow_caps = p[T_RATE_CAP];
    double *rates = p[T_RATE];
    double *remaining = p[T_REMAINING];
    int64_t *counts = p[T_COUNTS];
    int64_t *live = p[T_LIVE_LINKS];
    LinkMemo *memo = p[T_LINK_MEMO];
    uint8_t *sat = p[T_LINK_SAT];
    int64_t *flows = p[T_LIVE_FLOWS];
    int64_t *flow_class = p[T_FLOW_CLASS];
    CapClass *classes = p[T_CAP_CLASSES];
    int64_t f, l, s, i, c, w, nlive = 0, nactive = nflows, nclasses = 0;
    int64_t rounds = 0;
    double delta = INFINITY, rate = 0.0;
    const char *err;

    for (s = 0; s < flow_ptr[nflows]; s++) {
        l = flow_links[s];
        if (counts[l]++ == 0) {
            live[nlive++] = l;
        }
    }
    for (i = 0; i < nlive; i++) {
        l = live[i];
        LinkMemo *m = &memo[l];
        if (m->count != counts[l]) {
            double cap = link_caps[l];
            if (contention_c > 0.0) {
                double pf = (double)(counts[l] - 1) * contention_c;
                pf = pf + 1.0;
                if (pf > contention_cap) {
                    pf = contention_cap;
                }
                cap = cap / pf;
            }
            if (link_scales != NULL) {
                cap = cap * link_scales[l];
            }
            m->count = counts[l];
            m->cap = cap;
            m->sat = cap * 1e-12 + 1e-15;
            m->share = cap / (double)counts[l];
        }
        remaining[l] = m->cap;
        if (m->share < delta) {
            delta = m->share;
        }
    }
    for (f = 0, c = 0; f < nflows; f++) {
        uint64_t bits = double_bits(flow_caps[f]);
        if (c == nclasses || double_bits(classes[c].cap) != bits) {
            for (c = 0; c < nclasses && double_bits(classes[c].cap) != bits; c++) {
            }
            if (c == nclasses) {
                CapClass *k = &classes[nclasses++];
                k->cap = k->left = flow_caps[f];
                k->thresh = k->cap * 1e-12 + 1e-15;
                k->active = 0;
                if (k->left < delta) {
                    delta = k->left;
                }
            }
        }
        classes[c].active++;
        flow_class[f] = c;
        flows[f] = f;
    }

    for (;;) {
        if (!isfinite(delta)) {
            err = "unbounded flow: a path has no finite constraint";
            goto fail;
        }
        rounds++;
        rate += delta;
        for (c = 0; c < nclasses; c++) {
            if (classes[c].active > 0) {
                classes[c].left -= delta;
            }
        }
        int any_sat = 0;
        for (i = 0; i < nlive; i++) {
            l = live[i];
            double r = remaining[l] - (double)counts[l] * delta;
            remaining[l] = r;
            if (r <= memo[l].sat) {
                sat[l] = 1;
                any_sat = 1;
            }
        }
        /* Freeze.  counts is only read by the next round, so decrementing
         * it inside the scan matches the reference's subtract-after-the-
         * mask. */
        for (i = 0, w = 0; i < nactive; i++) {
            f = flows[i];
            CapClass *k = &classes[flow_class[f]];
            int hit = k->left <= k->thresh;
            for (s = flow_ptr[f]; any_sat && !hit && s < flow_ptr[f + 1]; s++) {
                hit = sat[flow_links[s]];
            }
            if (!hit) {
                flows[w++] = f;
                continue;
            }
            rates[f] = rate;
            k->active--;
            for (s = flow_ptr[f]; s < flow_ptr[f + 1]; s++) {
                counts[flow_links[s]]--;
            }
        }
        if (w == nactive) {
            err = "progressive filling made no progress";
            goto fail;
        }
        nactive = w;
        delta = INFINITY;
        for (i = 0, w = 0; i < nlive; i++) {
            l = live[i];
            if (counts[l] == 0) {
                sat[l] = 0;
                continue;
            }
            live[w++] = l;
            double cnt = (double)counts[l], r = remaining[l];
            if (delta > 0.0 && delta < INFINITY
                && r > delta * cnt * (1.0 + 0x1p-50)) {
                continue;
            }
            double v = r / cnt;
            if (v < delta) {
                delta = v;
            }
        }
        nlive = w;
        if (nactive == 0) {
            return rounds;
        }
        for (c = 0; c < nclasses; c++) {
            if (classes[c].active > 0 && classes[c].left < delta) {
                delta = classes[c].left;
            }
        }
    }
fail:
    /* Restore the all-zero counts: every link still counted lies on an
     * active path.  No link is flagged: a round that flags one freezes
     * a flow, and the pass after the freeze clears the flag. */
    for (i = 0; i < nactive; i++) {
        f = flows[i];
        for (s = flow_ptr[f]; s < flow_ptr[f + 1]; s++) {
            counts[flow_links[s]] = 0;
        }
    }
    PyErr_SetString(PyExc_RuntimeError, err);
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
    unsigned long long fill_rounds;
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
    {"fill_rounds", T_ULONGLONG, offsetof(StoreObject, fill_rounds), READONLY,
     "progressive-fill rounds of those reallocations"},
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
    if (st->n > 0) {
        int64_t rounds = recompute(st->tab, st->n, st->contention,
                                   st->contention_cap);
        if (rounds < 0) {
            return -1;
        }
        st->fill_rounds += (unsigned long long)rounds;
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

/* The first half of FluidNetwork.pop_completed_keys, rates current if
 * t > now, for net_check: drain every flow to t and move the clock
 * there.  Returns the number of drained flows (wire <= done_eps), or -1
 * with an exception set. */
static int64_t drain_to(StoreObject *st, double t) {
    const double *wire = st->tab[T_WIRE];
    int64_t f, ndone = 0;
    if (check_forward(st, t) < 0) {
        return -1;
    }
    if (t > st->now) {
        advance(st->tab, st->n, t - st->now);
        st->now = t;
    }
    for (f = 0; f < st->n; f++) {
        if (wire[f] <= st->done_eps) {
            ndone++;
        }
    }
    return ndone;
}

/* take(ctx, st, f) receives a drained slot before compaction overwrites
 * it, and takes over the reference in the slot's key column; 0, or -1
 * with an exception set. */
typedef int (*take_fn)(void *ctx, StoreObject *st, int64_t f);

/* The second half, after drain_to: retire every drained flow and
 * compact the slot columns, the CSR incidence and the object key column
 * in place, preserving insertion order.  Each drained slot goes to
 * take() in slot order; survivors' key references move with them and
 * the vacated tail slots are reset to None, so no key's refcount
 * changes and no retired key stays reachable from the column.  The
 * compaction completes even when a take fails, and then returns -1. */
static int compact(StoreObject *st, take_fn take, void *ctx) {
    void **p = st->tab;
    int64_t n = st->n, f, s;
    int rc = 0;
    double eps = st->done_eps;
    double *wire = p[T_WIRE];
    double *rate = p[T_RATE];
    double *rate_cap = p[T_RATE_CAP];
    int64_t *srcs = p[T_SRCS];
    int64_t *dsts = p[T_DSTS];
    int64_t *csr = p[T_CSR];
    int64_t *ptr = p[T_FLOW_PTR];
    PyObject **keys = p[T_KEYS];
    int64_t w = 0, links_w = 0;
    for (f = 0; f < n; f++) {
        if (wire[f] <= eps) {
            if (take(ctx, st, f) < 0) {
                rc = -1;
            }
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
    return rc;
}

/* The completed keys of a compaction, in slot order: the list takes
 * over the key column's references. */
typedef struct {
    PyObject *list;
    Py_ssize_t next;
} KeyTake;

static int take_key(void *ctx, StoreObject *st, int64_t f) {
    KeyTake *kt = ctx;
    PyList_SET_ITEM(kt->list, kt->next++, ((PyObject **)st->tab[T_KEYS])[f]);
    return 0;
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

/* The flow start of begin and of the schedule executor: advance_to(t),
 * then append one flow whose route is links[0..length).  A drain on a
 * dirty store reallocates first, as advance_to does, and counts it in
 * allocations.  A NULL key appends a keyless flow (the executor's: a
 * None key slot, not in the key set).  1 when appended; 0, changing
 * nothing, when the slot columns are full (the caller grows them and
 * calls again); -1 with an exception set. */
static int begin_flow(StoreObject *st, double t, PyObject *key, double wire,
                      double rate_cap, int64_t src, int64_t dst,
                      const int64_t *links, int64_t length) {
    if (check_forward(st, t) < 0) {
        return -1;
    }
    int64_t slot = st->n;
    if (slot == st->cap) {
        return 0;
    }
    if (t > st->now) {
        if (slot > 0) {
            if (st->dirty) {
                st->allocations++;
                if (store_recompute(st) < 0) {
                    return -1;
                }
            }
            advance(st->tab, slot, t - st->now);
        }
        st->now = t;
    }
    if (key == NULL) {
        key = Py_None;
    } else if (PySet_Add(st->keys, key) < 0) {
        return -1;
    }
    void **p = st->tab;
    int64_t *ptr = p[T_FLOW_PTR];
    int64_t used = ptr[slot];
    memcpy((int64_t *)p[T_CSR] + used, links, (size_t)length * sizeof(int64_t));
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
    return 1;
}

/* ------------------------------------------------------------------
 * The entry point. */

/* begin(st, t, key, wire, rate_cap, src, dst, routes, off, length):
 * advance_to(t), then append one flow — the engine's flow start in one
 * call.  Returns False, changing nothing, when the slot columns are
 * full (the caller grows them and calls again). */
static PyObject *py_begin(PyObject *mod, PyObject *const *args, Py_ssize_t nargs) {
    StoreObject *st;
    void **routes;
    int64_t src, dst, off, length;
    double t, wire, rate_cap;
    if (check_nargs("begin", nargs, 10) < 0 || arg_store(args[0], &st) < 0
        || arg_f64(args[1], &t) < 0 || arg_f64(args[3], &wire) < 0
        || arg_f64(args[4], &rate_cap) < 0 || arg_i64(args[5], &src) < 0
        || arg_i64(args[6], &dst) < 0 || arg_ptr(args[7], &routes) < 0
        || arg_i64(args[8], &off) < 0 || arg_i64(args[9], &length) < 0) {
        return NULL;
    }
    int rc = begin_flow(st, t, args[2], wire, rate_cap, src, dst,
                        (const int64_t *)routes + off, length);
    if (rc < 0) {
        return NULL;
    }
    return PyBool_FromLong(rc);
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
 * cycle itself (see queue_run).  run(engine, program) also runs the
 * ranks: it interprets a schedule's flat rank programs (the schedule
 * executor, below) with no Python call per event.
 *
 * Queued handlers are bound methods of the engine, which holds the
 * queue, so the type takes part in cyclic GC: an engine abandoned
 * mid-run with events still queued is collectable. */

/* repro.sim.events._TIME_ATOL: events closer than this to the current
 * instant drain with it (the test suite checks the two agree). */
#define TIME_ATOL 1e-12
/* Tolerance of the event-in-the-past check. */
#define PAST_TOL 1e-9

/* Three kinds of entry: a Python handler (fn and its argument tuple
 * args), a net check (fn its FlowStore, args NULL, gen its arm
 * generation) and an executor event (fn and args NULL, gen the rank
 * shifted left by two over an EV_* code). */
typedef struct {
    double time;
    uint64_t seq;
    PyObject *fn;
    PyObject *args;
    uint64_t gen;
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
        Py_XDECREF(h[i].fn);
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

/* A net check pops as (time, store, (gen,)), an executor event as
 * (time, None, (code,)). */
static PyObject *queue_pop(QueueObject *q, PyObject *unused) {
    Event e;
    if (q->size == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty event queue");
        return NULL;
    }
    heap_pop(q, &e);
    PyObject *args = e.args != NULL ? e.args : Py_BuildValue("(K)", e.gen);
    PyObject *res = args == NULL
        ? NULL
        : Py_BuildValue("(dOO)", e.time, e.fn != NULL ? e.fn : Py_None, args);
    Py_XDECREF(e.fn);
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
 * names the stalled flows in a NetworkStallError (engine.now is set
 * first: the executor's loop does not keep it current). */
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
            return rc < 0 || set_now(engine, now) < 0 ? -1 : python_arm(engine);
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

/* ------------------------------------------------------------------
 * The schedule executor: run(engine, program) runs the flat rank
 * programs of repro.schedules.executor (compiled_program(schedule), one
 * op per Send, Recv or pack/unpack Delay the generator
 * schedule_program yields) on a healthy machine, with the engine's
 * semantics and none of its Python calls: per rank a program cursor,
 * a state, Process.wait_time / last_event_time / finish_time, and one
 * rendezvous slot for its posted send or receive.  A schedule rank has
 * at most one blocked op and every receive names its source and tag,
 * so these slots match exactly as RendezvousTable does.  Each handler
 * below is the engine method it names, minus the fault, trace and
 * tracer branches, with the same floating-point expressions, pushing
 * the same events in the same order, so every timestamp, the jitter
 * stream and the slot order match the generator path bit for bit.
 *
 * program is the tuple Engine._run_compiled builds:
 *
 *   (ops, starts, delays, send_setup, recv_service, wire_latency,
 *    wire, sqrt_packets, jitter, z, z_next, z_block, grow,
 *    up_base, down_base, level_bw, arity)
 *
 * ops (int64, four per op: OP_* kind, peer, tag, index) holds every
 * rank's ops, rank r's at [starts[r], starts[r+1]); a send's index
 * names its size in wire / sqrt_packets, a delay's its seconds in
 * delays.  The remaining items are the network's (FluidNetwork.
 * _executor_part): the jitter scale and the normals stream (block z
 * from z_next on, then z_block() for each next block), grow(need)
 * (FluidNetwork._grow_slots) for full slot columns, and the fat tree's
 * per-level link bases and level bandwidths, from which a route is
 * built by FatTree.route_slot's arithmetic. */

enum { OP_SEND, OP_RECV, OP_DELAY };
enum { EV_RESUME, EV_POST_SEND, EV_FLOW_BEGIN };
/* Route buffer bound: 2 links per level. */
#define MAX_LEVELS 31
#define EX_VIEWS 8
#define EX_ITEMS 17

typedef struct {
    int64_t pc;   /* next op */
    int64_t end;  /* one past the rank's last op */
    int64_t cur;  /* the op it last started */
    double wait;
    double last;
    double finish;
    char blocked;     /* in a send or receive: accrues wait time */
    char done;
    char send_posted; /* its current send waits in the rendezvous */
    char recv_posted; /* its current receive waits in the rendezvous */
} Rank;

typedef struct {
    Py_buffer views[EX_VIEWS];
    int nviews;
    const int64_t *ops;
    const double *delays, *wire, *sqrt_packets, *level_bw;
    const int64_t *up_base, *down_base;
    int64_t nprocs, arity;
    double send_setup, recv_service, wire_latency, jitter;
    PyObject *z;      /* the current block of normals */
    Py_ssize_t zi;    /* its next unread entry */
    PyObject *z_block;
    PyObject *grow;
    Rank *ranks;
    unsigned long long messages;
} Exec;

/* A contiguous 8-byte buffer of kind 'd' (float64) or 'q' (int64) with
 * at least min_len items; its length goes to *len. */
static int exec_view(Exec *ex, PyObject *o, char kind, Py_ssize_t min_len,
                     const void **out, Py_ssize_t *len) {
    Py_buffer *v = &ex->views[ex->nviews];
    if (PyObject_GetBuffer(o, v, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        return -1;
    }
    ex->nviews++;
    const char *fmt = v->format != NULL ? v->format : "B";
    if (*fmt == '@' || *fmt == '=' || *fmt == '<') {
        fmt++;
    }
    int ok = v->itemsize == 8 && fmt[0] != '\0' && fmt[1] == '\0'
        && (kind == 'd' ? fmt[0] == 'd' : (fmt[0] == 'q' || fmt[0] == 'l'));
    if (!ok || v->len / 8 < min_len) {
        PyErr_Format(PyExc_ValueError,
                     "schedule program: expected %s buffer of at least %zd "
                     "items", kind == 'd' ? "a float64" : "an int64", min_len);
        return -1;
    }
    *out = v->buf;
    if (len != NULL) {
        *len = v->len / 8;
    }
    return 0;
}

static void exec_close(Exec *ex) {
    for (int i = 0; i < ex->nviews; i++) {
        PyBuffer_Release(&ex->views[i]);
    }
    Py_CLEAR(ex->z);
    PyMem_Free(ex->ranks);
    ex->ranks = NULL;
}

static int exec_bad(const char *what) {
    PyErr_Format(PyExc_ValueError, "schedule program: %s", what);
    return -1;
}

/* Unpack and check program (every index the loop follows is checked
 * here, once) for a run on the empty store st; 0, or -1 with an
 * exception set (exec_close releases what was taken either way). */
static int exec_open(Exec *ex, PyObject *program, StoreObject *st) {
    PyObject **it;
    const int64_t *starts;
    Py_ssize_t nops, nstarts, ndelays, nsizes, nlevels, zlen;
    int64_t r, i, reach = 1;
    memset(ex, 0, sizeof(*ex));
    if (!PyTuple_Check(program) || PyTuple_GET_SIZE(program) != EX_ITEMS) {
        PyErr_Format(PyExc_TypeError,
                     "schedule program must be a tuple of %d items", EX_ITEMS);
        return -1;
    }
    it = ((PyTupleObject *)program)->ob_item;
    if (exec_view(ex, it[0], 'q', 0, (const void **)&ex->ops, &nops) < 0
        || exec_view(ex, it[1], 'q', 2, (const void **)&starts, &nstarts) < 0
        || exec_view(ex, it[2], 'd', 0, (const void **)&ex->delays, &ndelays) < 0
        || arg_f64(it[3], &ex->send_setup) < 0
        || arg_f64(it[4], &ex->recv_service) < 0
        || arg_f64(it[5], &ex->wire_latency) < 0
        || exec_view(ex, it[6], 'd', 0, (const void **)&ex->wire, &nsizes) < 0
        || exec_view(ex, it[7], 'd', nsizes, (const void **)&ex->sqrt_packets,
                     NULL) < 0
        || arg_f64(it[8], &ex->jitter) < 0
        || arg_i64(it[10], &i) < 0
        || exec_view(ex, it[13], 'q', 1, (const void **)&ex->up_base,
                     &nlevels) < 0
        || exec_view(ex, it[14], 'q', nlevels, (const void **)&ex->down_base,
                     NULL) < 0
        || exec_view(ex, it[15], 'd', nlevels, (const void **)&ex->level_bw,
                     NULL) < 0
        || arg_i64(it[16], &ex->arity) < 0) {
        return -1;
    }
    if (!PyList_Check(it[9]) || !PyCallable_Check(it[11])
        || !PyCallable_Check(it[12])) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule program: z must be a list, z_block and "
                        "grow callables");
        return -1;
    }
    zlen = PyList_GET_SIZE(it[9]);
    if (i < 0 || i > zlen) {
        return exec_bad("z_next outside the block");
    }
    Py_INCREF(it[9]);
    ex->z = it[9];
    ex->zi = (Py_ssize_t)i;
    ex->z_block = it[11];
    ex->grow = it[12];
    nops /= 4;
    ex->nprocs = nstarts - 1;
    nlevels -= 1;
    if (ex->arity < 2 || ex->arity > 1024 || nlevels > MAX_LEVELS) {
        return exec_bad("unsupported fat tree");
    }
    for (i = 0; i < nlevels && reach < ex->nprocs; i++) {
        reach *= ex->arity;
    }
    if (reach < ex->nprocs) {
        return exec_bad("more ranks than the fat tree has leaves");
    }
    if (st->n != 0) {
        return exec_bad("the network has flows in flight");
    }
    if (starts[0] != 0 || starts[ex->nprocs] != nops) {
        return exec_bad("starts do not cover the ops");
    }
    ex->ranks = PyMem_Calloc((size_t)ex->nprocs, sizeof(Rank));
    if (ex->ranks == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (r = 0; r < ex->nprocs; r++) {
        if (starts[r + 1] < starts[r] || starts[r + 1] > nops) {
            return exec_bad("starts are not a partition of the ops");
        }
        ex->ranks[r].pc = starts[r];
        ex->ranks[r].end = starts[r + 1];
        for (i = starts[r]; i < starts[r + 1]; i++) {
            const int64_t *op = ex->ops + 4 * i;
            int ok = op[0] == OP_DELAY
                ? op[3] >= 0 && op[3] < ndelays
                : (op[0] == OP_SEND || op[0] == OP_RECV) && op[1] >= 0
                    && op[1] < ex->nprocs && op[1] != r
                    && (op[0] == OP_RECV || (op[3] >= 0 && op[3] < nsizes));
            if (!ok) {
                return exec_bad("op out of range");
            }
        }
    }
    return 0;
}

static int exec_push(QueueObject *q, double t, int kind, int64_t rank) {
    Event e = {t, q->seq, NULL, NULL, ((uint64_t)rank << 2) | (uint64_t)kind};
    if (heap_push(q, &e) < 0) {
        return -1;
    }
    q->seq++;
    return 0;
}

/* Engine._start_transfer: the flow begins after the first packet's
 * pipeline fill (no fault delay: the same `+ 0.0`). */
static int exec_start(QueueObject *q, const Exec *ex, int64_t sender,
                      double now) {
    return exec_push(q, now + ex->wire_latency + 0.0, EV_FLOW_BEGIN, sender);
}

/* Engine._post_recv: match the source's posted send or post. */
static int exec_post_recv(QueueObject *q, Exec *ex, int64_t r,
                          const int64_t *op, double now) {
    Rank *src = &ex->ranks[op[1]];
    if (src->send_posted) {
        const int64_t *send = ex->ops + 4 * src->cur;
        if (send[1] == r && send[2] == op[2]) {
            src->send_posted = 0;
            return exec_start(q, ex, op[1], now);
        }
    }
    ex->ranks[r].recv_posted = 1;
    return 0;
}

/* Engine._post_send: match the destination's posted receive or post. */
static int exec_post_send(QueueObject *q, Exec *ex, int64_t r, double now) {
    const int64_t *op = ex->ops + 4 * ex->ranks[r].cur;
    Rank *dst = &ex->ranks[op[1]];
    if (dst->recv_posted) {
        const int64_t *recv = ex->ops + 4 * dst->cur;
        if (recv[1] == r && recv[2] == op[2]) {
            dst->recv_posted = 0;
            return exec_start(q, ex, r, now);
        }
    }
    ex->ranks[r].send_posted = 1;
    return 0;
}

/* Engine._resume + _dispatch: close the rank's op, start its next. */
static int exec_resume(QueueObject *q, Exec *ex, int64_t r, double now) {
    Rank *rank = &ex->ranks[r];
    if (rank->blocked) {
        rank->wait += now - rank->last;
    }
    if (rank->pc == rank->end) {
        rank->blocked = 0;
        rank->done = 1;
        rank->finish = now;
        return 0;
    }
    const int64_t *op = ex->ops + 4 * rank->pc;
    rank->cur = rank->pc++;
    rank->blocked = op[0] != OP_DELAY;
    rank->last = now;
    if (op[0] == OP_SEND) {
        return exec_push(q, now + ex->send_setup, EV_POST_SEND, r);
    }
    if (op[0] == OP_RECV) {
        return exec_post_recv(q, ex, r, op, now);
    }
    return exec_push(q, now + ex->delays[op[3]], EV_RESUME, r);
}

/* The next jitter normal (FluidNetwork.begin_flow's draw). */
static int exec_next_z(Exec *ex, double *z) {
    if (ex->zi == PyList_GET_SIZE(ex->z)) {
        PyObject *block = PyObject_CallNoArgs(ex->z_block);
        if (block == NULL) {
            return -1;
        }
        if (!PyList_Check(block) || PyList_GET_SIZE(block) == 0) {
            Py_DECREF(block);
            PyErr_SetString(PyExc_TypeError,
                            "z_block() must return a non-empty list");
            return -1;
        }
        Py_SETREF(ex->z, block);
        ex->zi = 0;
    }
    *z = PyFloat_AsDouble(PyList_GET_ITEM(ex->z, ex->zi++));
    return (*z == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* Engine._flow_begin, i.e. FluidNetwork.begin_flow: the wire size,
 * inflated by the routing jitter, on the FatTree.route_slot route. */
static int exec_flow_begin(Exec *ex, StoreObject *st, int64_t src,
                           double now) {
    const int64_t *op = ex->ops + 4 * ex->ranks[src].cur;
    int64_t dst = op[1], s = src, d = dst, top = 0, level;
    int64_t links[2 * MAX_LEVELS];
    double wire = ex->wire[op[3]];
    if (ex->jitter > 0) {
        double z;
        if (exec_next_z(ex, &z) < 0) {
            return -1;
        }
        wire *= 1.0 + ex->jitter * z / ex->sqrt_packets[op[3]];
    }
    while (s != d) {
        s /= ex->arity;
        d /= ex->arity;
        top++;
    }
    s = src;
    d = dst;
    for (level = 1; level <= top; level++) {
        links[level - 1] = ex->up_base[level] + s;
        links[2 * top - level] = ex->down_base[level] + d;
        s /= ex->arity;
        d /= ex->arity;
    }
    double rate_cap = ex->level_bw[top];
    for (;;) {
        int rc = begin_flow(st, now, NULL, wire, rate_cap, src, dst, links,
                            2 * top);
        if (rc != 0) {
            return rc < 0 ? -1 : 0;
        }
        long long cap = st->cap;
        PyObject *r = PyObject_CallFunction(ex->grow, "L", st->n + 1);
        if (r == NULL) {
            return -1;
        }
        Py_DECREF(r);
        if (st->cap <= cap) {
            PyErr_SetString(PyExc_RuntimeError, "grow() left no free slot");
            return -1;
        }
    }
}

/* Engine._flow_complete for one retired flow: the rendezvous ack
 * resumes the sender now, the receiver after its service time. */
typedef struct {
    QueueObject *q;
    Exec *ex;
    double now;
} MessageTake;

static int take_message(void *ctx, StoreObject *st, int64_t f) {
    MessageTake *mt = ctx;
    Py_DECREF(((PyObject **)st->tab[T_KEYS])[f]);
    mt->ex->messages++;
    if (exec_push(mt->q, mt->now, EV_RESUME, ((int64_t *)st->tab[T_SRCS])[f]) < 0
        || exec_push(mt->q, mt->now + mt->ex->recv_service, EV_RESUME,
                     ((int64_t *)st->tab[T_DSTS])[f]) < 0) {
        return -1;
    }
    return 0;
}

static int exec_event(QueueObject *q, StoreObject *st, Exec *ex,
                      uint64_t code, double now) {
    int64_t r = (int64_t)(code >> 2);
    if (ex == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "executor event outside a schedule run");
        return -1;
    }
    switch (code & 3) {
    case EV_RESUME:
        return exec_resume(q, ex, r, now);
    case EV_POST_SEND:
        return exec_post_send(q, ex, r, now);
    default:
        return exec_flow_begin(ex, st, r, now);
    }
}

/* (messages, finish_times, wait_times), or None when a rank did not
 * finish. */
static PyObject *exec_result(const Exec *ex) {
    PyObject *finish = PyList_New((Py_ssize_t)ex->nprocs);
    PyObject *wait = PyList_New((Py_ssize_t)ex->nprocs);
    PyObject *res = NULL;
    if (finish == NULL || wait == NULL) {
        goto out;
    }
    for (int64_t r = 0; r < ex->nprocs; r++) {
        const Rank *rank = &ex->ranks[r];
        if (!rank->done) {
            Py_INCREF(Py_None);
            res = Py_None;
            goto out;
        }
        PyObject *f = PyFloat_FromDouble(rank->finish);
        PyObject *w = PyFloat_FromDouble(rank->wait);
        if (f == NULL || w == NULL) {
            Py_XDECREF(f);
            Py_XDECREF(w);
            goto out;
        }
        PyList_SET_ITEM(finish, (Py_ssize_t)r, f);
        PyList_SET_ITEM(wait, (Py_ssize_t)r, w);
    }
    res = Py_BuildValue("(KOO)", ex->messages, finish, wait);
out:
    Py_XDECREF(finish);
    Py_XDECREF(wait);
    return res;
}

/* Engine._net_check: unless a later arm superseded it, retire every
 * flow drained by now and complete each: in the executor (ex), else by
 * handing its key to engine._flow_complete. */
static int net_check(QueueObject *q, StoreObject *st, Exec *ex,
                     PyObject *ev_store, uint64_t gen, double now,
                     PyObject *complete) {
    if (ev_store != (PyObject *)st) {
        PyErr_SetString(PyExc_RuntimeError,
                        "net check of a network this run does not drive");
        return -1;
    }
    if (gen != st->gen) {
        return 0; /* stale: the flow set changed since it was armed */
    }
    if (st->n > 0 && st->dirty && now > st->now) {
        st->allocations++;
        if (store_recompute(st) < 0) {
            return -1;
        }
    }
    int64_t ndone = drain_to(st, now);
    if (ndone <= 0) {
        return (int)ndone;
    }
    if (ex != NULL) {
        MessageTake mt = {q, ex, now};
        return compact(st, take_message, &mt);
    }
    KeyTake kt = {PyList_New((Py_ssize_t)ndone), 0};
    if (kt.list == NULL) {
        return -1;
    }
    int rc = compact(st, take_key, &kt);
    for (Py_ssize_t i = 0; rc == 0 && i < ndone; i++) {
        rc = PySet_Discard(st->keys, PyList_GET_ITEM(kt.list, i)) < 0 ? -1 : 0;
    }
    for (Py_ssize_t i = 0; rc == 0 && i < ndone; i++) {
        PyObject *r = PyObject_CallOneArg(complete, PyList_GET_ITEM(kt.list, i));
        if (r == NULL) {
            rc = -1;
        } else {
            Py_DECREF(r);
        }
    }
    Py_DECREF(kt.list);
    return rc;
}

/* The drain loop.  With engine._native_net a FlowStore, the network's
 * cycle stays in C (but for an observer's call): after an instant in
 * which the flow set changed the loop arms a net check itself
 * (native_arm), and a popped net check retires in C and calls
 * engine._flow_complete(key) per completed key.  Otherwise (an engine
 * without a store) it calls engine._arm_network_event() when
 * engine._net_changed is set, like the Python loop.
 *
 * run(engine, program) needs the store and runs the schedule executor:
 * it queues every rank's first resume at 0.0, in rank order, as
 * Engine.run does, completes retired flows in the executor, sets
 * engine.now once, when the queue has drained (nothing reads it in
 * between), and returns exec_result's tuple or None. */
static PyObject *queue_run(QueueObject *q, PyObject *const *args,
                           Py_ssize_t nargs) {
    double now;
    StoreObject *st = NULL;
    Exec exec, *ex = NULL;
    PyObject *complete = NULL, *result = NULL;
    if (nargs != 1 && nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "run() takes 1 or 2 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *engine = args[0];
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
    } else {
        Py_DECREF(o);
    }
    if (nargs == 2) {
        if (st == NULL) {
            PyErr_SetString(PyExc_TypeError,
                            "a schedule program needs engine._native_net, "
                            "a FlowStore");
            return NULL;
        }
        ex = &exec;
        if (exec_open(ex, args[1], st) < 0) {
            goto done;
        }
        for (int64_t r = 0; r < ex->nprocs; r++) {
            if (exec_push(q, 0.0, EV_RESUME, r) < 0) {
                goto done;
            }
        }
    } else if (st != NULL) {
        complete = PyObject_GetAttr(engine, str_flow_complete);
        if (complete == NULL) {
            goto done;
        }
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
            if (ex == NULL && set_now(engine, now) < 0) {
                goto done;
            }
        }
        /* Drain the instant, cascades included, in (time, seq) order. */
        double threshold = now + TIME_ATOL;
        while (q->size > 0 && q->heap[0].time <= threshold) {
            Event e;
            heap_pop(q, &e);
            if (e.args == NULL) {
                if (e.fn == NULL) {
                    rc = exec_event(q, st, ex, e.gen, now);
                } else {
                    rc = net_check(q, st, ex, e.fn, e.gen, now, complete);
                    Py_DECREF(e.fn);
                }
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
    if (ex != NULL) {
        if (set_now(engine, now) == 0) {
            result = exec_result(ex);
        }
    } else {
        Py_INCREF(Py_None);
        result = Py_None;
    }
done:
    if (ex != NULL) {
        exec_close(ex);
    }
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
    {"run", (PyCFunction)(void (*)(void))queue_run, METH_FASTCALL,
     "run(engine[, program]): drain every event, advancing engine.now "
     "instant by instant and arming the network after each one.  Nothing "
     "but this loop writes engine.now.  With a schedule program, run its "
     "ranks in the loop; return (messages, finish_times, wait_times), or "
     "None when a rank did not finish."},
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
