/* Trace replay, deposit-plan application, probe re-initialization and
   charge restoration.

   A CPython extension module (repro.dram._replay), compiled on first use
   and loaded by repro.native.replay_kernel.  It runs the hot loops of the
   batched probe engine, the host's program replay and the bank's charge
   restoration:

   apply_plan     DisturbanceModel._apply_plan: one deposit plan applied
                  to the DamageLedger (emission, re-initialization and
                  replay all call this one implementation);
   run_ops        one pass of ops of a repro.dram.replay.Trace (internal);
   replay         Trace.replay: loop segments, closes, last PRE, counters;
   restore_rows   BatchedSearchEngine._restore: a unit's re-initialization;
   restore_row    Bank._restore_row: retention decay, flip realization and
                  the ledger restore of one charge restoration;
   realize_flips  DisturbanceModel.realize_flips, coupled_damage and
                  _flip_target, which restore_row runs on its row.

   Each keeps the exact operation sequence of the Python it replaced (kept
   as the test oracles in tests/dram/oracles.py): the same double
   operations in the same order, a slot's pools summed in pool_order
   order, its mechanisms coupled in MECHANISMS order, and no fused
   multiply-adds (-ffp-contract=off, never -ffast-math).  The flip target
   calls libm's log and erf, which CPython's math.log and math.erf return
   unchanged.  Everything else stays Python and is reached by callbacks:
   event guard misses (repro.dram.replay.apply_event), the probe tap,
   Bank._row_data on a row with no data, RetentionModel.retention_ns and
   DisturbanceModel.profile / _flip_order on their cache misses,
   RetentionModel.apply_decay past a row's retention time,
   Bank._restore_row (a replayed touch that may decay or flip),
   Bank._copy_row, Bank._sense_group, Bank._write_image (the
   copy-on-write image restore) and the caller's own ops (the host's REF
   and TRR ops).  A callback may allocate ledger slots, and growth swaps
   the ledger's buffers, so the kernel re-reads them after every
   callback.  An exception raised by a callback propagates. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

#define MAX_MECHS 8

/* set by init(): the model's synergy window, the ledger's pools per slot,
   the guard-miss handler, the ledger's mechanism and direction orders
   (a slot's pools are (mechanism, direction) row-major), each
   direction's vulnerable bit and the (other, mech) eta keys */
static long long synergy_window = 0;
static Py_ssize_t n_pools = 0;
static PyObject *apply_event_fn = NULL;
static Py_ssize_t n_mechs = 0;
static PyObject *directions = NULL;
static int vulnerable_bit[2];
static PyObject *eta_keys[MAX_MECHS][MAX_MECHS];

static PyObject *zero;
static PyObject *s_event, *s_touch, *s_copy, *s_sense;
static PyObject *s_dmg, *s_hits_mv, *s_side_mv, *s_flips_mv, *s_pool_order,
    *s_flipped, *s_slots;
static PyObject *s_row0, *s_version, *s_scaled, *s_times, *s_plan,
    *s_pattern;
static PyObject *s_model, *s_ledger, *s_index, *s_data_version,
    *s_last_restore, *s_last_close, *s_last_pre_ns, *s_frac, *s_tie_counter,
    *s_stats, *s_restore_row, *s_copy_row, *s_sense_group, *s_write_image;
static PyObject *s_trace_last_pre_ns, *s_segments, *s_tail, *s_closes,
    *s_tail_ns, *s_stats_const, *s_stats_linear, *s_acts, *s_writes,
    *s_pres;
static PyObject *s_probe_tap, *s_data, *s_row_data, *s_retention,
    *s_retention_dict, *s_retention_ns, *s_apply_decay, *s_profiles,
    *s_profile, *s_flip_orders, *s_flip_order, *s_vendor_cal, *s_cell_sigma,
    *s_weak_cells, *s_eta, *s_vulnerable_bit;

/* ------------------------------------------------------------------ */
/* conversions                                                          */
/* ------------------------------------------------------------------ */

static inline double as_double(PyObject *obj)
{
    return PyFloat_CheckExact(obj) ? PyFloat_AS_DOUBLE(obj)
                                   : PyFloat_AsDouble(obj);
}

#define FAILED_DOUBLE(x) ((x) == -1.0 && PyErr_Occurred())
#define FAILED_INDEX(x) ((x) == -1 && PyErr_Occurred())

static PyObject *dict_attr(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value != NULL && !PyDict_Check(value)) {
        PyErr_Format(PyExc_TypeError, "%s.%U must be a dict",
                     Py_TYPE(obj)->tp_name, name);
        Py_CLEAR(value);
    }
    return value;
}

static int set_float(PyObject *dict, PyObject *key, double value)
{
    PyObject *obj = PyFloat_FromDouble(value);
    if (obj == NULL)
        return -1;
    int status = PyDict_SetItem(dict, key, obj);
    Py_DECREF(obj);
    return status;
}

/* stats[key] += value * times (times 1: value itself) */
static int add_stat(PyObject *stats, PyObject *key, PyObject *value,
                    long long times)
{
    PyObject *delta, *old, *sum;
    if (times == 1) {
        delta = Py_NewRef(value);
    } else {
        PyObject *factor = PyLong_FromLongLong(times);
        if (factor == NULL)
            return -1;
        delta = PyNumber_Multiply(value, factor);
        Py_DECREF(factor);
        if (delta == NULL)
            return -1;
    }
    old = PyObject_GetItem(stats, key);
    if (old == NULL) {
        Py_DECREF(delta);
        return -1;
    }
    sum = PyNumber_InPlaceAdd(old, delta);
    Py_DECREF(old);
    Py_DECREF(delta);
    if (sum == NULL)
        return -1;
    int status = PyObject_SetItem(stats, key, sum);
    Py_DECREF(sum);
    return status;
}

/* ------------------------------------------------------------------ */
/* the damage ledger's buffers                                          */
/* ------------------------------------------------------------------ */

typedef struct {
    double *dmg;                 /* (capacity, n_pools) damage */
    int64_t *hits;               /* (capacity,) hit ordinals */
    int64_t *side;               /* (capacity, 2) last hit per side */
    int64_t *flips;              /* (capacity, 2) applied flips */
    PyObject *pool_order;        /* list of per-slot pool lists (owned) */
    PyObject *flipped;           /* list of per-slot cell sets (owned) */
    PyObject *slots;             /* (bank, row) -> slot (owned) */
    Py_ssize_t size;             /* allocated slots */
} ledger_t;

static int view_of(PyObject *ledger, PyObject *name, void **out)
{
    PyObject *view = PyObject_GetAttr(ledger, name);
    if (view == NULL)
        return -1;
    if (!PyMemoryView_Check(view)
        || PyMemoryView_GET_BUFFER(view)->itemsize != 8) {
        PyErr_Format(PyExc_TypeError,
                     "ledger.%U must be a memoryview of 8-byte items", name);
        Py_DECREF(view);
        return -1;
    }
    /* the ledger keeps the view, and the view its array, alive */
    *out = PyMemoryView_GET_BUFFER(view)->buf;
    Py_DECREF(view);
    return 0;
}

static void ledger_release(ledger_t *led)
{
    Py_CLEAR(led->pool_order);
    Py_CLEAR(led->flipped);
    Py_CLEAR(led->slots);
}

/* (re-)read the ledger's buffers: after every callback, since growth
   swaps them */
static int ledger_load(ledger_t *led, PyObject *ledger)
{
    ledger_release(led);
    if (view_of(ledger, s_dmg, (void **)&led->dmg) < 0
        || view_of(ledger, s_hits_mv, (void **)&led->hits) < 0
        || view_of(ledger, s_side_mv, (void **)&led->side) < 0
        || view_of(ledger, s_flips_mv, (void **)&led->flips) < 0)
        return -1;
    led->pool_order = PyObject_GetAttr(ledger, s_pool_order);
    led->flipped = PyObject_GetAttr(ledger, s_flipped);
    led->slots = PyObject_GetAttr(ledger, s_slots);
    if (led->pool_order == NULL || led->flipped == NULL
        || led->slots == NULL)
        return -1;
    if (!PyList_Check(led->pool_order) || !PyList_Check(led->flipped)
        || !PyDict_Check(led->slots)) {
        PyErr_SetString(PyExc_TypeError,
                        "ledger.pool_order and ledger.flipped must be "
                        "lists, ledger._slots a dict");
        return -1;
    }
    led->size = PyList_GET_SIZE(led->pool_order);
    if (PyList_GET_SIZE(led->flipped) < led->size) {
        PyErr_SetString(PyExc_ValueError, "ledger.flipped is short");
        return -1;
    }
    return 0;
}

static Py_ssize_t slot_index(const ledger_t *led, PyObject *obj)
{
    Py_ssize_t slot = PyLong_AsSsize_t(obj);
    if (FAILED_INDEX(slot))
        return -1;
    if (slot < 0 || slot >= led->size) {
        PyErr_Format(PyExc_IndexError, "ledger slot %zd out of range", slot);
        return -1;
    }
    return slot;
}

static long pool_index(PyObject *obj)
{
    long pool = PyLong_AsLong(obj);
    if (FAILED_INDEX(pool))
        return -1;
    if (pool < 0 || pool >= n_pools) {
        PyErr_Format(PyExc_IndexError, "damage pool %ld out of range", pool);
        return -1;
    }
    return pool;
}

/* pool in order (a list of pool ints)? 1, 0, or -1 on error */
static int has_pool(PyObject *order, long pool)
{
    Py_ssize_t n = PyList_GET_SIZE(order);
    for (Py_ssize_t k = 0; k < n; k++) {
        long have = PyLong_AsLong(PyList_GET_ITEM(order, k));
        if (FAILED_INDEX(have))
            return -1;
        if (have == pool)
            return 1;
    }
    return 0;
}

/* DamageLedger.restore: clear a slot's pools, applied flips and flip set */
static int ledger_restore(ledger_t *led, Py_ssize_t slot)
{
    PyObject *order = PyList_GET_ITEM(led->pool_order, slot);
    Py_ssize_t n = PyList_GET_SIZE(order);
    if (n) {
        double *dmg = led->dmg + slot * n_pools;
        for (Py_ssize_t k = 0; k < n; k++) {
            long pool = pool_index(PyList_GET_ITEM(order, k));
            if (pool < 0)
                return -1;
            dmg[pool] = 0.0;
        }
        if (PyList_SetSlice(order, 0, n, NULL) < 0)
            return -1;
    }
    led->flips[2 * slot] = 0;
    led->flips[2 * slot + 1] = 0;
    PyObject *cells = PyList_GET_ITEM(led->flipped, slot);
    if (PySet_Check(cells) && PySet_GET_SIZE(cells) && PySet_Clear(cells) < 0)
        return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* apply_plan                                                           */
/* ------------------------------------------------------------------ */

/* one deposit plan, entries (slot, side, p_dom, p_oth, inc_dom, inc_oth,
   penalty): bump the victim's hit ordinal, stamp its side, and deposit
   both pools at the (synergy-)scaled increment */
static int apply_plan(ledger_t *led, PyObject *plan, double times)
{
    if (!PyList_Check(plan)) {
        PyErr_SetString(PyExc_TypeError, "a deposit plan must be a list");
        return -1;
    }
    Py_ssize_t n = PyList_GET_SIZE(plan);
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *entry = PyList_GET_ITEM(plan, k);
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 7) {
            PyErr_SetString(PyExc_TypeError,
                            "a plan entry must be a 7-tuple");
            return -1;
        }
        PyObject **item = &PyTuple_GET_ITEM(entry, 0);
        Py_ssize_t slot = slot_index(led, item[0]);
        if (slot < 0)
            return -1;
        long p_dom = pool_index(item[2]);
        long p_oth = pool_index(item[3]);
        if (p_dom < 0 || p_oth < 0)
            return -1;
        double inc_dom = as_double(item[4]);
        double inc_oth = as_double(item[5]);
        double penalty = as_double(item[6]);
        if (FAILED_DOUBLE(inc_dom) || FAILED_DOUBLE(inc_oth)
            || FAILED_DOUBLE(penalty))
            return -1;

        int64_t hits = led->hits[slot] + 1;
        led->hits[slot] = hits;
        int64_t *side = led->side + 2 * slot;
        double scale;
        if (item[1] == Py_None) {
            /* sandwiched double-sided hit: both wordlines toggle */
            side[0] = hits;
            side[1] = hits;
            scale = times;
        } else {
            long dir = PyLong_AsLong(item[1]);
            if (FAILED_INDEX(dir))
                return -1;
            int64_t other;
            if (dir < 0) {
                side[0] = hits;
                other = side[1];
            } else {
                side[1] = hits;
                other = side[0];
            }
            /* the NO_HIT sentinel keeps hits - other far above the window */
            scale = hits - other <= synergy_window ? times : times / penalty;
        }
        PyObject *order = PyList_GET_ITEM(led->pool_order, slot);
        double *dmg = led->dmg + slot * n_pools;
        int have = has_pool(order, p_dom);
        if (have < 0 || (!have && PyList_Append(order, item[2]) < 0))
            return -1;
        dmg[p_dom] = dmg[p_dom] + inc_dom * scale;
        have = has_pool(order, p_oth);
        if (have < 0 || (!have && PyList_Append(order, item[3]) < 0))
            return -1;
        dmg[p_oth] = dmg[p_oth] + inc_oth * scale;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* flip realization                                                     */
/* ------------------------------------------------------------------ */

/* the dict value at key, or call() on a miss (new reference; *called set
   when it ran) */
static PyObject *cached(PyObject *owner, PyObject *dict_name, PyObject *key,
                        PyObject *method, PyObject *const *args,
                        size_t nargs, int *called)
{
    PyObject *dict = dict_attr(owner, dict_name);
    if (dict == NULL)
        return NULL;
    PyObject *value = PyDict_GetItemWithError(dict, key);
    Py_XINCREF(value);
    Py_DECREF(dict);
    if (value != NULL || PyErr_Occurred())
        return value;
    *called = 1;
    return PyObject_VectorcallMethod(method, args, nargs, NULL);
}

/* the model's profile of the row keyed (bank, row): model._profiles,
   model.profile() on a miss */
static PyObject *row_profile(PyObject *model, PyObject *key, int *called)
{
    PyObject *args[3] = {model, PyTuple_GET_ITEM(key, 0),
                         PyTuple_GET_ITEM(key, 1)};
    return cached(model, s_profiles, key, s_profile, args, 3, called);
}

/* a slot's mechanisms and the eta couplings between them */
typedef struct {
    int n;                              /* mechanisms with a pool */
    int mech[MAX_MECHS];                /* in MECHANISMS order */
    double eta[MAX_MECHS][MAX_MECHS];   /* [other][mech], by position */
} coupling_t;

static int coupling_load(coupling_t *c, PyObject *order, PyObject *prof)
{
    int present[MAX_MECHS] = {0};
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(order); k++) {
        long pool = pool_index(PyList_GET_ITEM(order, k));
        if (pool < 0)
            return -1;
        present[pool / 2] = 1;
    }
    c->n = 0;
    for (int m = 0; m < n_mechs; m++)
        if (present[m])
            c->mech[c->n++] = m;
    if (c->n < 2)
        return 0;
    PyObject *eta = dict_attr(prof, s_eta);
    if (eta == NULL)
        return -1;
    int status = 0;
    for (int o = 0; o < c->n && status == 0; o++) {
        for (int m = 0; m < c->n; m++) {
            if (o == m)
                continue;
            PyObject *value = PyDict_GetItemWithError(
                eta, eta_keys[c->mech[o]][c->mech[m]]);
            double v = value == NULL ? 0.0 : as_double(value);
            if ((value == NULL && PyErr_Occurred()) || FAILED_DOUBLE(v)) {
                status = -1;
                break;
            }
            c->eta[o][m] = v;
        }
    }
    Py_DECREF(eta);
    return status;
}

/* DisturbanceModel.coupled_damage on a slot's pools, direction d: the max
   over mechanisms of the own pool plus the eta-weighted pools of the
   others */
static double coupled(const coupling_t *c, const double *dmg, int d)
{
    double best = 0.0;
    for (int m = 0; m < c->n; m++) {
        double value = dmg[2 * c->mech[m] + d];
        for (int o = 0; o < c->n; o++) {
            if (o == m)
                continue;
            const double *other = dmg + 2 * c->mech[o];
            value += c->eta[o][m] * (other[d] + other[d ^ 1]);
        }
        if (value > best)
            best = value;
    }
    return best;
}

/* DisturbanceModel._flip_target: how many cells of a direction have
   flipped at this damage -- per-cell thresholds lognormal, centered
   2.5 sigma above the row threshold; -1 with an exception set */
static long long flip_target(double weak_cells, double sigma,
                             double effective)
{
    if (!(effective > 0.0) && !isnan(effective)) {
        PyErr_SetString(PyExc_ValueError, "math domain error");
        return -1;
    }
    double x = (log(effective) - 2.5 * sigma) / sigma;
    double quantile = 0.5 * (1.0 + erf(x / sqrt(2.0)));
    double extra = weak_cells * quantile;
    if (isnan(extra)) {
        PyErr_SetString(PyExc_ValueError,
                        "cannot convert float NaN to integer");
        return -1;
    }
    if (!(fabs(extra) < 9.0e18)) {
        PyErr_SetString(PyExc_OverflowError, "flip target out of range");
        return -1;
    }
    long long target = (long long)extra;
    return target < 1 ? 1 : target;
}

/* the profile's weak cells and the vendor's cell sigma */
static int target_inputs(PyObject *model, PyObject *prof, double *weak_cells,
                         double *sigma)
{
    PyObject *weak = PyObject_GetAttr(prof, s_weak_cells);
    if (weak == NULL)
        return -1;
    *weak_cells = as_double(weak);
    Py_DECREF(weak);
    if (FAILED_DOUBLE(*weak_cells))
        return -1;
    PyObject *vendor = PyObject_GetAttr(model, s_vendor_cal);
    if (vendor == NULL)
        return -1;
    PyObject *cell_sigma = PyObject_GetAttr(vendor, s_cell_sigma);
    Py_DECREF(vendor);
    if (cell_sigma == NULL)
        return -1;
    *sigma = as_double(cell_sigma);
    Py_DECREF(cell_sigma);
    return FAILED_DOUBLE(*sigma) ? -1 : 0;
}

/* DisturbanceModel._flip_cells: walk the row's flip order for direction
   d and flip its first `needed` vulnerable cells that are not in the
   slot's flipped set, adding them to it.  Cell i is bit 7 - (i & 7) of
   byte i >> 3 (np.unpackbits order).  The count, or -1 */
static long long flip_cells(PyObject *model, PyObject *key, int d,
                            unsigned char *bytes, Py_ssize_t nbytes,
                            long long needed, PyObject *flipped_cells,
                            int *called)
{
    PyObject *lookup = PyTuple_Pack(3, PyTuple_GET_ITEM(key, 0),
                                    PyTuple_GET_ITEM(key, 1),
                                    PyTuple_GET_ITEM(directions, d));
    if (lookup == NULL)
        return -1;
    PyObject *args[4] = {model, PyTuple_GET_ITEM(lookup, 0),
                         PyTuple_GET_ITEM(lookup, 1),
                         PyTuple_GET_ITEM(lookup, 2)};
    PyObject *order = cached(model, s_flip_orders, lookup, s_flip_order,
                             args, 4, called);
    Py_DECREF(lookup);
    if (order == NULL)
        return -1;
    Py_buffer view;
    int status = PyObject_GetBuffer(order, &view,
                                    PyBUF_FORMAT | PyBUF_C_CONTIGUOUS);
    Py_DECREF(order);
    if (status < 0)
        return -1;
    long long flipped = -1;
    const char *fmt = view.format == NULL ? "B" : view.format;
    if (*fmt == '<' || *fmt == '=' || *fmt == '@')
        fmt++;
    if (view.itemsize != 8 || view.ndim != 1
        || (strcmp(fmt, "l") != 0 && strcmp(fmt, "q") != 0)) {
        PyErr_SetString(PyExc_TypeError,
                        "a flip order must be a 1-d int64 array");
        goto done;
    }
    const int64_t *cells = view.buf;
    Py_ssize_t n = view.len / 8;
    int vulnerable = vulnerable_bit[d];
    int check = PySet_GET_SIZE(flipped_cells) > 0;
    flipped = 0;
    for (Py_ssize_t k = 0; k < n && flipped < needed; k++) {
        int64_t cell = cells[k];
        if (cell < 0 || (cell >> 3) >= nbytes) {
            PyErr_Format(PyExc_IndexError, "cell %lld out of range",
                         (long long)cell);
            flipped = -1;
            break;
        }
        unsigned char mask = (unsigned char)(0x80u >> (cell & 7));
        if (((bytes[cell >> 3] & mask) != 0) != vulnerable)
            continue;
        PyObject *cell_obj = PyLong_FromLongLong(cell);
        if (cell_obj == NULL) {
            flipped = -1;
            break;
        }
        int skip = check ? PySet_Contains(flipped_cells, cell_obj) : 0;
        if (skip == 0) {
            bytes[cell >> 3] ^= mask;
            skip = PySet_Add(flipped_cells, cell_obj);
            flipped++;
        }
        Py_DECREF(cell_obj);
        if (skip < 0) {
            flipped = -1;
            break;
        }
    }
done:
    PyBuffer_Release(&view);
    return flipped;
}

/* the ledger slot keyed (bank, row), or -1 (an exception set on error) */
static Py_ssize_t slot_of(const ledger_t *led, PyObject *key)
{
    PyObject *slot = PyDict_GetItemWithError(led->slots, key);
    return slot == NULL ? -1 : slot_index(led, slot);
}

/* DisturbanceModel.realize_flips on the row keyed (bank, row): flip the
   cells the damage earned into data's bytes; the count, or -1 */
static long long realize(PyObject *model, PyObject *ledger, ledger_t *led,
                         PyObject *key, PyObject *data)
{
    Py_ssize_t slot = slot_of(led, key);
    if (slot < 0)
        return PyErr_Occurred() ? -1 : 0;
    PyObject *order = PyList_GET_ITEM(led->pool_order, slot);
    Py_ssize_t n = PyList_GET_SIZE(order);
    if (n == 0)
        return 0;
    /* no direction can have crossed its threshold if even the eta-free
       damage total is far below 1 */
    const double *dmg = led->dmg + slot * n_pools;
    double total = 0.0;
    for (Py_ssize_t k = 0; k < n; k++) {
        long pool = pool_index(PyList_GET_ITEM(order, k));
        if (pool < 0)
            return -1;
        total += dmg[pool];
    }
    if (total < 0.999)
        return 0;

    int called = 0;
    PyObject *prof = row_profile(model, key, &called);
    if (prof == NULL || (called && ledger_load(led, ledger) < 0)) {
        Py_XDECREF(prof);
        return -1;
    }
    long long result = -1, total_new = 0;
    int have_view = 0;
    double weak_cells, sigma;
    Py_buffer view;
    coupling_t c;
    if (coupling_load(&c, PyList_GET_ITEM(led->pool_order, slot), prof) < 0
        || target_inputs(model, prof, &weak_cells, &sigma) < 0)
        goto done;
    for (int d = 0; d < 2; d++) {
        double effective = coupled(&c, led->dmg + slot * n_pools, d);
        if (effective < 1.0)
            continue;
        if (!have_view) {
            if (PyObject_GetBuffer(data, &view,
                                   PyBUF_WRITABLE | PyBUF_FORMAT) < 0)
                goto done;
            have_view = 1;
            if (view.itemsize != 1 || view.format == NULL
                || strcmp(view.format, "B") != 0) {
                PyErr_SetString(PyExc_TypeError,
                                "row data must be contiguous uint8");
                goto done;
            }
        }
        long long target = flip_target(weak_cells, sigma, effective);
        if (target < 0)
            goto done;
        long long already = led->flips[2 * slot + d];
        long long needed = target - already;
        if (needed <= 0)
            continue;
        called = 0;
        long long flipped = flip_cells(
            model, key, d, view.buf, view.len, needed,
            PyList_GET_ITEM(led->flipped, slot), &called);
        if (flipped < 0 || (called && ledger_load(led, ledger) < 0))
            goto done;
        led->flips[2 * slot + d] = already + flipped;
        total_new += flipped;
    }
    result = total_new;
done:
    if (have_view)
        PyBuffer_Release(&view);
    Py_DECREF(prof);
    return result;
}

/* ------------------------------------------------------------------ */
/* the bank a replay runs on                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *bank;              /* borrowed */
    PyObject *ledger;            /* owned */
    PyObject *index;             /* bank.index (owned) */
    PyObject *data_version;      /* row -> data version (owned) */
    PyObject *last_restore;      /* row -> last restore ns (owned) */
    PyObject *last_close;        /* row -> last close ns (owned) */
    PyObject *stats;             /* counters (owned) */
    ledger_t led;
} bank_t;

static void bank_release(bank_t *b)
{
    Py_CLEAR(b->ledger);
    Py_CLEAR(b->index);
    Py_CLEAR(b->data_version);
    Py_CLEAR(b->last_restore);
    Py_CLEAR(b->last_close);
    Py_CLEAR(b->stats);
    ledger_release(&b->led);
}


static int bank_load(bank_t *b, PyObject *bank)
{
    memset(b, 0, sizeof(*b));
    b->bank = bank;
    PyObject *model = PyObject_GetAttr(bank, s_model);
    if (model == NULL)
        return -1;
    b->ledger = PyObject_GetAttr(model, s_ledger);
    Py_DECREF(model);
    if (b->ledger == NULL)
        return -1;
    b->index = PyObject_GetAttr(bank, s_index);
    if (b->index == NULL)
        return -1;
    b->data_version = dict_attr(bank, s_data_version);
    b->last_restore = dict_attr(bank, s_last_restore);
    b->last_close = dict_attr(bank, s_last_close);
    b->stats = PyObject_GetAttr(bank, s_stats);
    if (b->data_version == NULL || b->last_restore == NULL
        || b->last_close == NULL || b->stats == NULL)
        return -1;
    return ledger_load(&b->led, b->ledger);
}

/* bank.<name>(arg1[, arg2[, arg3]]); then re-read the ledger */
static int call_bank(bank_t *b, PyObject *name, PyObject *a1, PyObject *a2,
                     PyObject *a3)
{
    PyObject *args[4] = {b->bank, a1, a2, a3};
    size_t nargs = a2 == NULL ? 2 : a3 == NULL ? 3 : 4;
    PyObject *result = PyObject_VectorcallMethod(name, args, nargs, NULL);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return ledger_load(&b->led, b->ledger);
}

/* the full Bank._restore_row(row, t) */
static int restore_full(bank_t *b, PyObject *row, double t)
{
    PyObject *t_obj = PyFloat_FromDouble(t);
    if (t_obj == NULL)
        return -1;
    int status = call_bank(b, s_restore_row, row, t_obj, NULL);
    Py_DECREF(t_obj);
    return status;
}

/* Bank._restore_row's retention step: RetentionModel.apply_decay on the
   row keyed (bank, row), called only once the time since its last
   restore is past its retention time (retention._retention,
   retention_ns() on a miss), since decay_count is 0 until then.  Bits
   decayed, or -1 */
static long long decay(PyObject *bank, PyObject *key, PyObject *now,
                       PyObject *last, PyObject *data)
{
    PyObject *retention = PyObject_GetAttr(bank, s_retention);
    if (retention == NULL)
        return -1;
    int called = 0;
    PyObject *args[5] = {retention, PyTuple_GET_ITEM(key, 0),
                         PyTuple_GET_ITEM(key, 1), NULL, data};
    PyObject *limit = cached(retention, s_retention_dict, key,
                             s_retention_ns, args, 3, &called);
    PyObject *elapsed = limit == NULL ? NULL : PyNumber_Subtract(now, last);
    int within = elapsed == NULL
        ? -1 : PyObject_RichCompareBool(elapsed, limit, Py_LE);
    long long decayed = within == 1 ? 0 : -1;
    if (within == 0) {
        args[3] = elapsed;
        PyObject *result = PyObject_VectorcallMethod(s_apply_decay, args, 5,
                                                     NULL);
        if (result != NULL) {
            decayed = PyLong_AsLongLong(result);
            Py_DECREF(result);
        }
    }
    Py_XDECREF(limit);
    Py_XDECREF(elapsed);
    Py_DECREF(retention);
    return decayed;
}

/* Bank._restore_row(row, now): tap the touch, decay what retention lost,
   realize the flips the damage earned, restore the row's ledger slot and
   record the restore; a row whose bytes changed gets a new data version */
static int restore_row(PyObject *bank, PyObject *row, PyObject *now)
{
    int status = -1;
    long long changed = 0;
    PyObject *data = NULL, *index = NULL, *key = NULL, *last_restore = NULL,
             *last = NULL, *model = NULL, *ledger = NULL;
    ledger_t led = {0};

    PyObject *tap = PyObject_GetAttr(bank, s_probe_tap);
    if (tap == NULL)
        return -1;
    if (tap != Py_None) {
        PyObject *touch = PyTuple_Pack(3, s_touch, row, now);
        PyObject *result = touch == NULL
            ? NULL : PyObject_CallOneArg(tap, touch);
        Py_XDECREF(touch);
        if (result == NULL) {
            Py_DECREF(tap);
            return -1;
        }
        Py_DECREF(result);
    }
    Py_DECREF(tap);

    PyObject *rows = dict_attr(bank, s_data);
    if (rows == NULL)
        return -1;
    data = PyDict_GetItemWithError(rows, row);
    Py_XINCREF(data);
    Py_DECREF(rows);
    if (data == NULL) {
        if (PyErr_Occurred())
            return -1;
        PyObject *args[2] = {bank, row};
        data = PyObject_VectorcallMethod(s_row_data, args, 2, NULL);
        if (data == NULL)
            return -1;
    }
    index = PyObject_GetAttr(bank, s_index);
    key = index == NULL ? NULL : PyTuple_Pack(2, index, row);
    last_restore = key == NULL ? NULL : dict_attr(bank, s_last_restore);
    if (last_restore == NULL)
        goto done;
    last = PyDict_GetItemWithError(last_restore, row);
    Py_XINCREF(last);
    if (last == NULL && PyErr_Occurred())
        goto done;
    if (last != NULL && (changed = decay(bank, key, now, last, data)) < 0)
        goto done;

    model = PyObject_GetAttr(bank, s_model);
    ledger = model == NULL ? NULL : PyObject_GetAttr(model, s_ledger);
    if (ledger == NULL || ledger_load(&led, ledger) < 0)
        goto done;
    long long flipped = realize(model, ledger, &led, key, data);
    if (flipped < 0)
        goto done;
    changed += flipped;
    Py_ssize_t slot = slot_of(&led, key);
    if (slot < 0 ? PyErr_Occurred() != NULL : ledger_restore(&led, slot) < 0)
        goto done;
    if (changed) {
        PyObject *versions = dict_attr(bank, s_data_version);
        if (versions == NULL)
            goto done;
        PyObject *have = PyDict_GetItemWithError(versions, row);
        PyObject *next = NULL;
        if (have != NULL || !PyErr_Occurred()) {
            PyObject *one = PyLong_FromLong(1);
            if (one != NULL)
                next = PyNumber_Add(have == NULL ? zero : have, one);
            Py_XDECREF(one);
        }
        int set = next == NULL ? -1 : PyDict_SetItem(versions, row, next);
        Py_XDECREF(next);
        Py_DECREF(versions);
        if (set < 0)
            goto done;
    }
    status = PyDict_SetItem(last_restore, row, now);
done:
    ledger_release(&led);
    Py_XDECREF(data);
    Py_XDECREF(index);
    Py_XDECREF(key);
    Py_XDECREF(last_restore);
    Py_XDECREF(last);
    Py_XDECREF(model);
    Py_XDECREF(ledger);
    return status;
}

/* ------------------------------------------------------------------ */
/* run_ops                                                              */
/* ------------------------------------------------------------------ */

enum { OP_OTHER, OP_EVENT, OP_TOUCH, OP_COPY, OP_SENSE };

static int op_kind(PyObject *tag)
{
    if (tag == s_touch)
        return OP_TOUCH;
    if (tag == s_event)
        return OP_EVENT;
    if (tag == s_copy)
        return OP_COPY;
    if (tag == s_sense)
        return OP_SENSE;
    if (!PyUnicode_Check(tag))
        return OP_OTHER;
    /* an equal tag that is not the interned string */
    if (PyUnicode_Compare(tag, s_touch) == 0)
        return OP_TOUCH;
    if (PyUnicode_Compare(tag, s_event) == 0)
        return OP_EVENT;
    if (PyUnicode_Compare(tag, s_copy) == 0)
        return OP_COPY;
    if (PyUnicode_Compare(tag, s_sense) == 0)
        return OP_SENSE;
    return OP_OTHER;
}

static const Py_ssize_t OP_ARITY[] = {1, 2, 5, 3, 4};

/* ("event", entry): apply the entry's plan when the aggressor row's data
   version still matches, else hand it to apply_event */
static int run_event(bank_t *b, PyObject *entry, double scaled_times)
{
    int status = -1;
    PyObject *row0 = NULL, *version = NULL, *plan = NULL, *times_obj = NULL;
    double times;
    PyObject *scaled = PyObject_GetAttr(entry, s_scaled);
    if (scaled == NULL)
        return -1;
    int is_scaled = PyObject_IsTrue(scaled);
    Py_DECREF(scaled);
    if (is_scaled < 0)
        return -1;
    if (is_scaled) {
        times = scaled_times;
    } else {
        times_obj = PyObject_GetAttr(entry, s_times);
        if (times_obj == NULL)
            return -1;
        times = as_double(times_obj);
        if (FAILED_DOUBLE(times))
            goto done;
    }
    row0 = PyObject_GetAttr(entry, s_row0);
    version = row0 == NULL ? NULL : PyObject_GetAttr(entry, s_version);
    if (version == NULL)
        goto done;
    PyObject *have = PyDict_GetItemWithError(b->data_version, row0);
    if (have == NULL && PyErr_Occurred())
        goto done;
    int hit = PyObject_RichCompareBool(have == NULL ? zero : have, version,
                                       Py_EQ);
    if (hit < 0)
        goto done;
    if (hit) {
        plan = PyObject_GetAttr(entry, s_plan);
        if (plan != NULL)
            status = apply_plan(&b->led, plan, times);
        goto done;
    }
    if (times_obj == NULL && (times_obj = PyFloat_FromDouble(times)) == NULL)
        goto done;
    PyObject *args[3] = {b->bank, entry, times_obj};
    PyObject *result = PyObject_Vectorcall(apply_event_fn, args, 3, NULL);
    if (result == NULL)
        goto done;
    Py_DECREF(result);
    /* a re-resolved plan may allocate ledger slots */
    status = ledger_load(&b->led, b->ledger);
done:
    Py_XDECREF(row0);
    Py_XDECREF(version);
    Py_XDECREF(plan);
    Py_XDECREF(times_obj);
    return status;
}

/* ("touch", row, rel_ns, slot, retention_ns): Bank._restore_row where
   nothing observable can happen -- retention below threshold and damage
   below the realize early-out -- reduces to the ledger restore */
static int run_touch(bank_t *b, PyObject **item, double base)
{
    PyObject *row = item[1];
    double rel = as_double(item[2]);
    if (FAILED_DOUBLE(rel))
        return -1;
    double t = base + rel;
    PyObject *last = PyDict_GetItemWithError(b->last_restore, row);
    if (last == NULL && PyErr_Occurred())
        return -1;
    if (last != NULL) {
        double last_ns = as_double(last);
        double retention_ns = as_double(item[4]);
        if (FAILED_DOUBLE(last_ns) || FAILED_DOUBLE(retention_ns))
            return -1;
        if (t - last_ns > retention_ns)
            return restore_full(b, row, t);
    }
    PyObject *slot_obj = item[3];
    if (slot_obj == Py_None) {
        /* the row had no slot when the op was recorded; it may now */
        PyObject *key = PyTuple_Pack(2, b->index, row);
        if (key == NULL)
            return -1;
        slot_obj = PyDict_GetItemWithError(b->led.slots, key);
        Py_DECREF(key);
        if (slot_obj == NULL) {
            if (PyErr_Occurred())
                return -1;
            return set_float(b->last_restore, row, t);
        }
    }
    Py_ssize_t slot = slot_index(&b->led, slot_obj);
    if (slot < 0)
        return -1;
    PyObject *order = PyList_GET_ITEM(b->led.pool_order, slot);
    Py_ssize_t n = PyList_GET_SIZE(order);
    if (n) {
        double *dmg = b->led.dmg + slot * n_pools;
        double total = 0.0;
        for (Py_ssize_t k = 0; k < n; k++) {
            long pool = pool_index(PyList_GET_ITEM(order, k));
            if (pool < 0)
                return -1;
            total += dmg[pool];
        }
        if (total >= 0.999)
            return restore_full(b, row, t);
    }
    if (ledger_restore(&b->led, slot) < 0)
        return -1;
    return set_float(b->last_restore, row, t);
}

/* re-apply one pass of ops on the bank, times relative to base */
static int run_ops(bank_t *b, PyObject *ops, double base,
                   double scaled_times, PyObject *other)
{
    if (!PyList_Check(ops)) {
        PyErr_SetString(PyExc_TypeError, "trace ops must be a list");
        return -1;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(ops); i++) {
        PyObject *op = PyList_GET_ITEM(ops, i);
        if (!PyTuple_Check(op) || PyTuple_GET_SIZE(op) < 1) {
            PyErr_SetString(PyExc_TypeError, "a trace op must be a tuple");
            return -1;
        }
        int kind = op_kind(PyTuple_GET_ITEM(op, 0));
        if (PyTuple_GET_SIZE(op) < OP_ARITY[kind]) {
            PyErr_SetString(PyExc_TypeError, "a trace op is too short");
            return -1;
        }
        Py_INCREF(op);
        PyObject **item = &PyTuple_GET_ITEM(op, 0);
        int status;
        if (kind == OP_TOUCH) {
            status = run_touch(b, item, base);
        } else if (kind == OP_EVENT) {
            status = run_event(b, item[1], scaled_times);
        } else if (kind == OP_COPY) {
            status = call_bank(b, s_copy_row, item[1], item[2], NULL);
        } else if (kind == OP_SENSE) {
            status = call_bank(b, s_sense_group, item[1], item[2], item[3]);
        } else {
            status = -1;
            PyObject *base_obj = PyFloat_FromDouble(base);
            if (base_obj != NULL) {
                PyObject *args[2] = {op, base_obj};
                PyObject *result = PyObject_Vectorcall(other, args, 2, NULL);
                Py_DECREF(base_obj);
                if (result != NULL) {
                    Py_DECREF(result);
                    status = ledger_load(&b->led, b->ledger);
                }
            }
        }
        Py_DECREF(op);
        if (status < 0)
            return -1;
    }
    return 0;
}

/* last_close[row] = base + rel for every (row, rel) of closes */
static int set_closes(bank_t *b, PyObject *closes, double base)
{
    PyObject *seq = PySequence_Fast(closes, "trace closes must be a sequence");
    if (seq == NULL)
        return -1;
    int status = 0;
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(seq); k++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(seq, k);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError, "a close must be (row, rel)");
            status = -1;
            break;
        }
        double rel = as_double(PyTuple_GET_ITEM(pair, 1));
        if (FAILED_DOUBLE(rel)
            || set_float(b->last_close, PyTuple_GET_ITEM(pair, 0),
                         base + rel) < 0) {
            status = -1;
            break;
        }
    }
    Py_DECREF(seq);
    return status;
}

/* ------------------------------------------------------------------ */
/* exported functions                                                   */
/* ------------------------------------------------------------------ */

static int ready(void)
{
    if (apply_event_fn == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "the replay kernel was not initialized");
        return -1;
    }
    return 0;
}

static PyObject *k_init(PyObject *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "init(synergy_window, n_pools, apply_event, "
                        "mechanisms, directions)");
        return NULL;
    }
    long long window = PyLong_AsLongLong(args[0]);
    Py_ssize_t pools = PyLong_AsSsize_t(args[1]);
    if (FAILED_INDEX(window) || FAILED_INDEX(pools))
        return NULL;
    PyObject *mechs = args[3], *dirs = args[4];
    if (!PyTuple_Check(mechs) || !PyTuple_Check(dirs)
        || PyTuple_GET_SIZE(dirs) != 2 || PyTuple_GET_SIZE(mechs) > MAX_MECHS
        || PyTuple_GET_SIZE(mechs) * 2 != pools) {
        PyErr_SetString(PyExc_ValueError,
                        "the pools must be (mechanism, direction) pairs "
                        "over two directions");
        return NULL;
    }
    int bits[2];
    for (int d = 0; d < 2; d++) {
        PyObject *bit = PyObject_GetAttr(PyTuple_GET_ITEM(dirs, d),
                                         s_vulnerable_bit);
        if (bit == NULL)
            return NULL;
        bits[d] = PyObject_IsTrue(bit);
        Py_DECREF(bit);
        if (bits[d] < 0)
            return NULL;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(mechs);
    for (Py_ssize_t o = 0; o < n; o++)
        for (Py_ssize_t m = 0; m < n; m++) {
            PyObject *pair = PyTuple_Pack(2, PyTuple_GET_ITEM(mechs, o),
                                          PyTuple_GET_ITEM(mechs, m));
            if (pair == NULL)
                return NULL;
            Py_XSETREF(eta_keys[o][m], pair);
        }
    synergy_window = window;
    n_pools = pools;
    n_mechs = n;
    vulnerable_bit[0] = bits[0];
    vulnerable_bit[1] = bits[1];
    Py_XSETREF(directions, Py_NewRef(dirs));
    Py_XSETREF(apply_event_fn, Py_NewRef(args[2]));
    Py_RETURN_NONE;
}

static PyObject *k_apply_plan(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "apply_plan(ledger, plan, times)");
        return NULL;
    }
    if (ready() < 0)
        return NULL;
    double times = as_double(args[2]);
    if (FAILED_DOUBLE(times))
        return NULL;
    ledger_t led = {0};
    int status = ledger_load(&led, args[0]);
    if (status == 0)
        status = apply_plan(&led, args[1], times);
    ledger_release(&led);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *k_replay(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "replay(trace, bank, base, count, other)");
        return NULL;
    }
    if (ready() < 0)
        return NULL;
    PyObject *trace = args[0], *other = args[4];
    double base = as_double(args[2]);
    long long count = PyLong_AsLongLong(args[3]);
    if (FAILED_DOUBLE(base) || FAILED_INDEX(count))
        return NULL;
    double scaled_times = (double)count - 1.0;

    PyObject *result = NULL, *segments = NULL, *tail = NULL, *closes = NULL,
             *last_pre = NULL, *tail_ns = NULL, *stats_const = NULL,
             *stats_linear = NULL;
    bank_t b;
    if (bank_load(&b, args[1]) < 0)
        goto done;
    segments = PyObject_GetAttr(trace, s_segments);
    if (segments == NULL)
        goto done;
    if (!PyList_Check(segments)) {
        PyErr_SetString(PyExc_TypeError, "trace.segments must be a list");
        goto done;
    }
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(segments); k++) {
        PyObject *seg = PyList_GET_ITEM(segments, k);
        if (!PyList_Check(seg) || PyList_GET_SIZE(seg) != 5) {
            PyErr_SetString(PyExc_TypeError,
                            "a trace segment must be [period_ns, fixed, "
                            "warm_ops, scaled_ops, closes]");
            goto done;
        }
        Py_INCREF(seg);
        PyObject **item = &PyList_GET_ITEM(seg, 0);
        int status = -1;
        double period = as_double(item[0]);
        long long n = item[1] == Py_None ? count : PyLong_AsLongLong(item[1]);
        if (!FAILED_DOUBLE(period) && !FAILED_INDEX(n)
            && run_ops(&b, item[2], base, scaled_times, other) == 0
            && (n <= 1
                || run_ops(&b, item[3], base + period, scaled_times,
                           other) == 0)
            && set_closes(&b, item[4], base) == 0)
            status = 0;
        Py_DECREF(seg);
        if (status < 0)
            goto done;
        base += period * (double)n;
    }
    tail = PyObject_GetAttr(trace, s_tail);
    if (tail == NULL || run_ops(&b, tail, base, scaled_times, other) < 0)
        goto done;
    closes = PyObject_GetAttr(trace, s_closes);
    if (closes == NULL || set_closes(&b, closes, base) < 0)
        goto done;
    last_pre = PyObject_GetAttr(trace, s_trace_last_pre_ns);
    if (last_pre == NULL)
        goto done;
    if (last_pre != Py_None) {
        double rel = as_double(last_pre);
        if (FAILED_DOUBLE(rel))
            goto done;
        PyObject *at = PyFloat_FromDouble(base + rel);
        if (at == NULL)
            goto done;
        int status = PyObject_SetAttr(b.bank, s_last_pre_ns, at);
        Py_DECREF(at);
        if (status < 0)
            goto done;
    }
    stats_const = PyObject_GetAttr(trace, s_stats_const);
    stats_linear = PyObject_GetAttr(trace, s_stats_linear);
    if (stats_const == NULL || stats_linear == NULL)
        goto done;
    if (!PyDict_Check(stats_const) || !PyDict_Check(stats_linear)) {
        PyErr_SetString(PyExc_TypeError, "trace stats must be dicts");
        goto done;
    }
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(stats_const, &pos, &key, &value))
        if (add_stat(b.stats, key, value, 1) < 0)
            goto done;
    if (count > 1) {
        pos = 0;
        while (PyDict_Next(stats_linear, &pos, &key, &value))
            if (add_stat(b.stats, key, value, count - 1) < 0)
                goto done;
    }
    tail_ns = PyObject_GetAttr(trace, s_tail_ns);
    if (tail_ns == NULL)
        goto done;
    double rel = as_double(tail_ns);
    if (!FAILED_DOUBLE(rel))
        result = PyFloat_FromDouble(base + rel);
done:
    bank_release(&b);
    Py_XDECREF(segments);
    Py_XDECREF(tail);
    Py_XDECREF(closes);
    Py_XDECREF(last_pre);
    Py_XDECREF(tail_ns);
    Py_XDECREF(stats_const);
    Py_XDECREF(stats_linear);
    return result;
}

/* apply a held-back write session's entry: its plan at its times */
static int apply_entry(bank_t *b, PyObject *entry)
{
    PyObject *plan = PyObject_GetAttr(entry, s_plan);
    if (plan == NULL)
        return -1;
    PyObject *times_obj = PyObject_GetAttr(entry, s_times);
    int status = -1;
    if (times_obj != NULL) {
        double times = as_double(times_obj);
        if (!FAILED_DOUBLE(times))
            status = apply_plan(&b->led, plan, times);
        Py_DECREF(times_obj);
    }
    Py_DECREF(plan);
    return status;
}

/* a row holds its image again at version: the entries whose plan is for
   the image's pattern are valid at that version */
static int refresh_entries(PyObject *entries, PyObject *image_pattern,
                           PyObject *version)
{
    PyObject *seq = PySequence_Fast(entries, "meta entries must be a sequence");
    if (seq == NULL)
        return -1;
    int status = 0;
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(seq); k++) {
        PyObject *entry = PySequence_Fast_GET_ITEM(seq, k);
        PyObject *pattern = PyObject_GetAttr(entry, s_pattern);
        if (pattern == NULL) {
            status = -1;
            break;
        }
        int same = PyObject_RichCompareBool(pattern, image_pattern, Py_EQ);
        Py_DECREF(pattern);
        if (same < 0
            || (same && PyObject_SetAttr(entry, s_version, version) < 0)) {
            status = -1;
            break;
        }
    }
    Py_DECREF(seq);
    return status;
}

static PyObject *k_restore_rows(PyObject *self, PyObject *const *args,
                                Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError,
                        "restore_rows(bank, meta, writes, versions, images, "
                        "clock, t_wr_at, stride)");
        return NULL;
    }
    if (ready() < 0)
        return NULL;
    PyObject *meta = args[1], *writes = args[2], *versions = args[3],
             *images = args[4];
    if (!PyList_Check(meta) || !PyList_Check(writes)
        || !PyDict_Check(versions) || !PyDict_Check(images)) {
        PyErr_SetString(PyExc_TypeError,
                        "meta and writes must be lists, versions and "
                        "images dicts");
        return NULL;
    }
    double t = as_double(args[5]);
    double t_wr_at = as_double(args[6]);
    double stride = as_double(args[7]);
    if (FAILED_DOUBLE(t) || FAILED_DOUBLE(t_wr_at) || FAILED_DOUBLE(stride))
        return NULL;

    PyObject *result = NULL, *frac = NULL, *pending = NULL;
    bank_t b;
    if (bank_load(&b, args[0]) < 0)
        goto done;
    frac = PyObject_GetAttr(b.bank, s_frac);
    if (frac == NULL)
        goto done;
    if (!PySet_Check(frac)) {
        PyErr_SetString(PyExc_TypeError, "bank._frac must be a set");
        goto done;
    }
    Py_ssize_t n = PyList_GET_SIZE(meta);
    if (PyList_GET_SIZE(writes) < n)
        n = PyList_GET_SIZE(writes);
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *m = PyList_GET_ITEM(meta, k);
        PyObject *w = PyList_GET_ITEM(writes, k);
        if (!PyTuple_Check(m) || PyTuple_GET_SIZE(m) != 4
            || !PyTuple_Check(w) || PyTuple_GET_SIZE(w) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "meta rows must be (row, slot, entries, "
                            "pattern), writes (steady, cold)");
            goto done;
        }
        PyObject *row = PyTuple_GET_ITEM(m, 0);
        if (pending != NULL) {
            /* the row before's write session: applied one row late (the
               pipeline's holdback), on data equal to its image */
            int status = apply_entry(&b, pending);
            Py_CLEAR(pending);
            if (status < 0)
                goto done;
        }
        int closed = PyDict_Contains(b.last_close, row);
        if (closed < 0)
            goto done;
        pending = PyTuple_GET_ITEM(w, closed ? 0 : 1);
        pending = pending == Py_None ? NULL : Py_NewRef(pending);

        PyObject *have = PyDict_GetItemWithError(b.data_version, row);
        if (have == NULL && PyErr_Occurred())
            goto done;
        PyObject *written = PyDict_GetItemWithError(versions, row);
        if (written == NULL && PyErr_Occurred())
            goto done;
        int moved = written == NULL
            ? 1
            : PyObject_RichCompareBool(have == NULL ? zero : have, written,
                                       Py_NE);
        if (moved < 0)
            goto done;
        if (moved) {
            PyObject *image = PyDict_GetItemWithError(images, row);
            if (image == NULL) {
                if (!PyErr_Occurred())
                    PyErr_SetObject(PyExc_KeyError, row);
                goto done;
            }
            PyObject *call[3] = {b.bank, row, image};
            PyObject *version = PyObject_VectorcallMethod(
                s_write_image, call, 3, NULL);
            if (version == NULL)
                goto done;
            int status = ledger_load(&b.led, b.ledger);
            if (status == 0)
                status = PyDict_SetItem(versions, row, version);
            if (status == 0)
                status = refresh_entries(PyTuple_GET_ITEM(m, 2),
                                         PyTuple_GET_ITEM(m, 3), version);
            Py_DECREF(version);
            if (status < 0)
                goto done;
        }
        if (set_float(b.last_restore, row, t + t_wr_at) < 0)
            goto done;
        int fractional = PySet_Contains(frac, row);
        if (fractional < 0)
            goto done;
        if (fractional) {
            /* the write session's ACT senses the fractional row's
               thermal noise first, which takes a tie */
            if (PySet_Discard(frac, row) < 0)
                goto done;
            PyObject *ties = PyObject_GetAttr(b.bank, s_tie_counter);
            if (ties == NULL)
                goto done;
            PyObject *one = PyLong_FromLong(1);
            PyObject *next = one == NULL ? NULL : PyNumber_Add(ties, one);
            Py_DECREF(ties);
            Py_XDECREF(one);
            if (next == NULL)
                goto done;
            int status = PyObject_SetAttr(b.bank, s_tie_counter, next);
            Py_DECREF(next);
            if (status < 0)
                goto done;
        }
        Py_ssize_t slot = slot_index(&b.led, PyTuple_GET_ITEM(m, 1));
        if (slot < 0 || ledger_restore(&b.led, slot) < 0)
            goto done;
        if (set_float(b.last_close, row, t + stride) < 0)
            goto done;
        t += stride;
    }
    if (pending != NULL && apply_entry(&b, pending) < 0)
        goto done;
    PyObject *count = PyLong_FromSsize_t(PyList_GET_SIZE(meta));
    if (count == NULL)
        goto done;
    int status = add_stat(b.stats, s_acts, count, 1);
    if (status == 0)
        status = add_stat(b.stats, s_writes, count, 1);
    if (status == 0)
        status = add_stat(b.stats, s_pres, count, 1);
    Py_DECREF(count);
    if (status == 0)
        result = PyFloat_FromDouble(t);
done:
    Py_XDECREF(pending);
    Py_XDECREF(frac);
    bank_release(&b);
    return result;
}

static PyObject *k_restore_row(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "restore_row(bank, row, now_ns)");
        return NULL;
    }
    if (ready() < 0 || restore_row(args[0], args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* the model's ledger, loaded, and the (bank, row) key */
static int model_load(PyObject *model, PyObject *bank, PyObject *row,
                      PyObject **ledger, ledger_t *led, PyObject **key)
{
    *key = NULL;
    *ledger = PyObject_GetAttr(model, s_ledger);
    if (*ledger == NULL || ledger_load(led, *ledger) < 0)
        return -1;
    *key = PyTuple_Pack(2, bank, row);
    return *key == NULL ? -1 : 0;
}

static PyObject *k_realize_flips(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "realize_flips(model, bank, row, data)");
        return NULL;
    }
    if (ready() < 0)
        return NULL;
    PyObject *ledger, *key, *result = NULL;
    ledger_t led = {0};
    if (model_load(args[0], args[1], args[2], &ledger, &led, &key) == 0) {
        long long flipped = realize(args[0], ledger, &led, key, args[3]);
        if (flipped >= 0)
            result = PyLong_FromLongLong(flipped);
    }
    ledger_release(&led);
    Py_XDECREF(ledger);
    Py_XDECREF(key);
    return result;
}

static PyObject *k_coupled_damage(PyObject *self, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "coupled_damage(model, bank, row, direction index)");
        return NULL;
    }
    if (ready() < 0)
        return NULL;
    long d = PyLong_AsLong(args[3]);
    if (FAILED_INDEX(d))
        return NULL;
    if (d != 0 && d != 1) {
        PyErr_Format(PyExc_IndexError, "direction %ld out of range", d);
        return NULL;
    }
    PyObject *ledger, *key, *prof = NULL, *result = NULL;
    ledger_t led = {0};
    if (model_load(args[0], args[1], args[2], &ledger, &led, &key) < 0)
        goto done;
    Py_ssize_t slot = slot_of(&led, key);
    if (slot < 0 || !PyList_GET_SIZE(PyList_GET_ITEM(led.pool_order, slot))) {
        if (!PyErr_Occurred())
            result = PyFloat_FromDouble(0.0);
        goto done;
    }
    int called = 0;
    prof = row_profile(args[0], key, &called);
    if (prof == NULL || (called && ledger_load(&led, ledger) < 0))
        goto done;
    coupling_t c;
    if (coupling_load(&c, PyList_GET_ITEM(led.pool_order, slot), prof) == 0)
        result = PyFloat_FromDouble(
            coupled(&c, led.dmg + slot * n_pools, (int)d));
done:
    ledger_release(&led);
    Py_XDECREF(ledger);
    Py_XDECREF(key);
    Py_XDECREF(prof);
    return result;
}

static PyObject *k_flip_target(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "flip_target(model, prof, effective_damage)");
        return NULL;
    }
    double weak_cells, sigma, effective = as_double(args[2]);
    if (FAILED_DOUBLE(effective)
        || target_inputs(args[0], args[1], &weak_cells, &sigma) < 0)
        return NULL;
    long long target = flip_target(weak_cells, sigma, effective);
    return target < 0 ? NULL : PyLong_FromLongLong(target);
}

/* ------------------------------------------------------------------ */
/* module                                                               */
/* ------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"init", (PyCFunction)(void (*)(void))k_init, METH_FASTCALL,
     "init(synergy_window, n_pools, apply_event, mechanisms, directions): "
     "the constants the kernel shares with Python, and the guard-miss "
     "handler."},
    {"apply_plan", (PyCFunction)(void (*)(void))k_apply_plan, METH_FASTCALL,
     "apply_plan(ledger, plan, times): DisturbanceModel._apply_plan."},
    {"replay", (PyCFunction)(void (*)(void))k_replay, METH_FASTCALL,
     "replay(trace, bank, base, count, other) -> end ns: Trace.replay."},
    {"restore_rows", (PyCFunction)(void (*)(void))k_restore_rows,
     METH_FASTCALL,
     "restore_rows(bank, meta, writes, versions, images, clock, t_wr_at, "
     "stride) -> end ns: BatchedSearchEngine._restore."},
    {"restore_row", (PyCFunction)(void (*)(void))k_restore_row,
     METH_FASTCALL, "restore_row(bank, row, now_ns): Bank._restore_row."},
    {"realize_flips", (PyCFunction)(void (*)(void))k_realize_flips,
     METH_FASTCALL,
     "realize_flips(model, bank, row, data) -> bits flipped: "
     "DisturbanceModel.realize_flips."},
    {"coupled_damage", (PyCFunction)(void (*)(void))k_coupled_damage,
     METH_FASTCALL,
     "coupled_damage(model, bank, row, direction index) -> damage: "
     "DisturbanceModel.coupled_damage."},
    {"flip_target", (PyCFunction)(void (*)(void))k_flip_target,
     METH_FASTCALL,
     "flip_target(model, prof, effective_damage) -> cells: "
     "DisturbanceModel._flip_target."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_replay",
    "Trace replay, deposit-plan application, probe re-initialization and "
    "charge restoration.",
    -1, methods, NULL, NULL, NULL, NULL,
};

static int intern(PyObject **slot, const char *text)
{
    *slot = PyUnicode_InternFromString(text);
    return *slot == NULL ? -1 : 0;
}

PyMODINIT_FUNC PyInit__replay(void)
{
    struct { PyObject **slot; const char *text; } names[] = {
        {&s_event, "event"}, {&s_touch, "touch"}, {&s_copy, "copy"},
        {&s_sense, "sense"}, {&s_dmg, "dmg"}, {&s_hits_mv, "hits_mv"},
        {&s_side_mv, "side_mv"}, {&s_flips_mv, "flips_mv"},
        {&s_pool_order, "pool_order"}, {&s_flipped, "flipped"},
        {&s_slots, "_slots"}, {&s_row0, "row0"}, {&s_version, "version"},
        {&s_scaled, "scaled"}, {&s_times, "times"}, {&s_plan, "plan"},
        {&s_pattern, "pattern"}, {&s_model, "model"}, {&s_ledger, "ledger"},
        {&s_index, "index"}, {&s_data_version, "_data_version"},
        {&s_last_restore, "_last_restore"}, {&s_last_close, "_last_close"},
        {&s_last_pre_ns, "_last_pre_ns"}, {&s_frac, "_frac"},
        {&s_tie_counter, "_tie_counter"}, {&s_stats, "stats"},
        {&s_restore_row, "_restore_row"}, {&s_copy_row, "_copy_row"},
        {&s_sense_group, "_sense_group"}, {&s_write_image, "_write_image"},
        {&s_trace_last_pre_ns, "last_pre_ns"}, {&s_segments, "segments"}, {&s_tail, "tail"},
        {&s_closes, "closes"}, {&s_tail_ns, "tail_ns"},
        {&s_stats_const, "stats_const"}, {&s_stats_linear, "stats_linear"},
        {&s_acts, "acts"}, {&s_writes, "writes"}, {&s_pres, "pres"},
        {&s_probe_tap, "probe_tap"}, {&s_data, "_data"},
        {&s_row_data, "_row_data"}, {&s_retention, "retention"},
        {&s_retention_dict, "_retention"}, {&s_retention_ns, "retention_ns"},
        {&s_apply_decay, "apply_decay"}, {&s_profiles, "_profiles"},
        {&s_profile, "profile"}, {&s_flip_orders, "_flip_orders"},
        {&s_flip_order, "_flip_order"}, {&s_vendor_cal, "vendor_cal"},
        {&s_cell_sigma, "cell_sigma"}, {&s_weak_cells, "weak_cells"},
        {&s_eta, "eta"}, {&s_vulnerable_bit, "vulnerable_bit"},
    };
    for (size_t k = 0; k < sizeof(names) / sizeof(names[0]); k++)
        if (intern(names[k].slot, names[k].text) < 0)
            return NULL;
    zero = PyLong_FromLong(0);
    if (zero == NULL)
        return NULL;
    return PyModule_Create(&module);
}
