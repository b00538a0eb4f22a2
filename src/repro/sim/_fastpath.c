/*
 * Compiled per-packet fabric hot path (CPython C API, CPython headers only).
 *
 * Implements, bit-identically to the pure-Python reference in engine.py,
 * link.py, switch.py and queues.py:
 *
 *   run()            the lean Simulator.run event loop;
 *   Link._drain      delivery drain, including the settle of the feeding
 *                    port's batch-advance schedule;
 *   Switch.receive   the up / kind <= CNP / no-QCN / ECMP-or-single-path
 *                    forwarding case;
 *   Port.enqueue     the batch-advance fast path: settle, tail drop, RED,
 *                    inlined phantom marking, ser-time memo, commit to the
 *                    link's in-flight deque, arming the link drain.
 *
 * State is read and written at the ``__slots__`` member offsets resolved
 * once by bind() from the classes' member descriptors. Every entry checks
 * exact types (Port, Switch, Link, Packet, EventHandle, PhantomQueue) and
 * the few conditions it handles *before* it changes any state; anything
 * else calls the reference Python method it replaces (its ``fallback``).
 * One C entry calls another directly only while the class attribute is
 * still that entry, so class-level wrappers (tracers) see every call.
 *
 * The loader, repro/sim/fastpath.py, builds this file and installs the
 * entries as class attributes; see DESIGN.md "Performance".
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#if PY_VERSION_HEX < 0x030B0000
#include <longintrepr.h>  /* Python.h includes it from 3.11 on */
#endif
#include <math.h>

#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))

/* -- bound classes and member offsets ----------------------------------- */

static PyTypeObject *SimType, *HandleType, *PortType, *LinkType,
    *SwitchType, *PacketType, *PhantomType, *DequeType;
static PyObject *switch_globals;  /* repro.sim.switch namespace (flow_hash) */
static PyCFunction dq_append, dq_popleft;
static int bound;

static struct { Py_ssize_t now, heap, seq, n_executed, n_cancelled; } S;
static struct { Py_ssize_t time, fn, args, cancelled, fired; } H;
static struct {
    Py_ssize_t sim, link, events, monitor, pfc, batch, fifo, sched,
        bytes_queued, tx_bytes, capacity_bytes, drops, red_min_th,
        red_max_th, red_span, rng, phantom, marked_pkts, red_marked_pkts,
        phantom_marked_pkts, enqueued_pkts, ser_cache, gbps, busy_until;
} P;
static struct {
    Py_ssize_t sim, inflight, drain_armed, drain_handle, port, sink,
        prop_ps, delivered_pkts;
} L;
static struct { Py_ssize_t occupancy, drain, last_ps, min_th, max_th, rng; } Q;
static struct {
    Py_ssize_t up, qcn, nexthops, rx_pkts, mode, hash_cache, salt,
        multipath_pkts;
} W;
static struct { Py_ssize_t kind, src, dst, sport, dport, size, ecn, hops; } K;

typedef struct { Py_ssize_t *dst; const char *name; } OffsetSpec;

static PyObject *s_receive, *s_random, *s_at_seq, *s__drain, *s_flow_hash;

#define CNP_KIND 3
#define HASH_CACHE_MAX 65536

/* -- the entry descriptor ------------------------------------------------ */

enum { ENTRY_ENQUEUE, ENTRY_DRAIN, ENTRY_SWITCH, N_ENTRIES };
static const char *const entry_names[N_ENTRIES] = {
    "enqueue", "drain", "switch_receive"};
static const Py_ssize_t entry_nargs[N_ENTRIES] = {2, 1, 2};

/* A method-like descriptor: binds like a function, is called through
 * vectorcall, and reports the reference method's name and qualname so
 * profilers attribute it under the readable site (``Link._drain``). */
typedef struct {
    PyObject_HEAD
    int which;
    PyObject *fallback;  /* the reference Python function */
    vectorcallfunc vectorcall;
} FastMethod;

static PyTypeObject FastMethodType;
static FastMethod *entries[N_ENTRIES];
/* Type version tags under which the class attribute was last seen to be
 * the C entry (0 = unknown); see attr_is_entry(). */
static unsigned int port_receive_tag, switch_receive_tag;

static PyObject *port_enqueue(PyObject *port, PyObject *pkt);
static PyObject *link_drain(PyObject *link);
static PyObject *switch_receive(PyObject *sw, PyObject *pkt);

/* -- small helpers -------------------------------------------------------- */

/* Exact int that fits in 64 bits -> *out; 0 (no error set) otherwise. */
static inline int
as_i64(PyObject *o, long long *out)
{
    if (!PyLong_CheckExact(o))
        return 0;
#if PY_VERSION_HEX < 0x030C0000
    {
        Py_ssize_t sz = Py_SIZE(o);
        const digit *d = ((PyLongObject *)o)->ob_digit;
        switch (sz) {
        case 0: *out = 0; return 1;
        case 1: *out = (long long)d[0]; return 1;
        case -1: *out = -(long long)d[0]; return 1;
        case 2:
            *out = (long long)(((unsigned long long)d[1] << PyLong_SHIFT)
                               | d[0]);
            return 1;
        case -2:
            *out = -(long long)(((unsigned long long)d[1] << PyLong_SHIFT)
                                | d[0]);
            return 1;
        }
    }
#endif
    {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
        if (overflow)
            return 0;
        if (v == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            return 0;
        }
        *out = v;
        return 1;
    }
}

/* Exact float, or exact int small enough to convert exactly. */
static inline int
as_f64(PyObject *o, double *out)
{
    long long v;
    if (PyFloat_CheckExact(o)) {
        *out = PyFloat_AS_DOUBLE(o);
        return 1;
    }
    if (as_i64(o, &v) && v < (1LL << 53) && v > -(1LL << 53)) {
        *out = (double)v;
        return 1;
    }
    return 0;
}

static inline int
slot_i64(PyObject *o, Py_ssize_t off, long long *out)
{
    PyObject *v = SLOT(o, off);
    return v != NULL && as_i64(v, out);
}

static inline int
slot_f64(PyObject *o, Py_ssize_t off, double *out)
{
    PyObject *v = SLOT(o, off);
    return v != NULL && as_f64(v, out);
}

/* Store a new reference (stolen) into a slot. */
static inline void
slot_steal(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject **p = (PyObject **)((char *)o + off);
    PyObject *old = *p;
    *p = v;
    Py_XDECREF(old);
}

static inline void
slot_set(PyObject *o, Py_ssize_t off, PyObject *v)
{
    Py_INCREF(v);
    slot_steal(o, off, v);
}

static inline int
slot_set_i64(PyObject *o, Py_ssize_t off, long long v)
{
    PyObject *n = PyLong_FromLongLong(v);
    if (n == NULL)
        return -1;
    slot_steal(o, off, n);
    return 0;
}

/* ``o.<slot> += d`` with Python semantics for whatever the slot holds. */
static int
slot_add(PyObject *o, Py_ssize_t off, long long d)
{
    PyObject *v = SLOT(o, off), *n;
    long long x;
    if (v != NULL && as_i64(v, &x) && x < (1LL << 62) && x > -(1LL << 62))
        return slot_set_i64(o, off, x + d);
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "slot is unset");
        return -1;
    }
    PyObject *dd = PyLong_FromLongLong(d);
    if (dd == NULL)
        return -1;
    n = PyNumber_Add(v, dd);
    Py_DECREF(dd);
    if (n == NULL)
        return -1;
    slot_steal(o, off, n);
    return 0;
}

static inline int
truth(PyObject *v)
{
    if (v == Py_True)
        return 1;
    if (v == Py_False || v == Py_None)
        return 0;
    return PyObject_IsTrue(v);
}

/* ``a <= b`` for two ints (fast) or anything comparable. */
static inline int
obj_le(PyObject *a, PyObject *b)
{
    long long x, y;
    if (as_i64(a, &x) && as_i64(b, &y))
        return x <= y;
    return PyObject_RichCompareBool(a, b, Py_LE);
}

/* New reference to deque[0]. */
static inline PyObject *
dq_head(PyObject *dq)
{
    return Py_TYPE(dq)->tp_as_sequence->sq_item(dq, 0);
}

static inline int
dq_push(PyObject *dq, PyObject *item)
{
    PyObject *r = dq_append(dq, item);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* True while ``tp.<name>`` is still ``entry``. The answer is cached under
 * the type's version tag, which CPython invalidates on every class
 * attribute assignment, so a freshly installed wrapper is seen at once. */
static inline int
attr_is_entry(PyTypeObject *tp, PyObject *name, FastMethod *entry,
              unsigned int *tag)
{
    PyObject *v;
    if (entry == NULL)
        return 0;
#ifdef Py_TPFLAGS_VALID_VERSION_TAG
    if (*tag != 0 && (tp->tp_flags & Py_TPFLAGS_VALID_VERSION_TAG)
            && tp->tp_version_tag == *tag)
        return 1;
#endif
    v = PyDict_GetItemWithError(tp->tp_dict, name);
    if (v != (PyObject *)entry) {
        PyErr_Clear();
        return 0;
    }
#ifdef Py_TPFLAGS_VALID_VERSION_TAG
    *tag = (tp->tp_flags & Py_TPFLAGS_VALID_VERSION_TAG)
        ? tp->tp_version_tag : 0;
#endif
    return 1;
}

/* -- heapq, the same algorithm as Modules/_heapqmodule.c ----------------- */

/* Heap entries are (time, seq, handle); seqs are unique, so the integer
 * compare below decides exactly what tuple comparison would. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)
            && PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        long long ta, tb, sa, sb;
        if (as_i64(PyTuple_GET_ITEM(a, 0), &ta)
                && as_i64(PyTuple_GET_ITEM(b, 0), &tb)) {
            if (ta != tb)
                return ta < tb;
            if (as_i64(PyTuple_GET_ITEM(a, 1), &sa)
                    && as_i64(PyTuple_GET_ITEM(b, 1), &sb) && sa != sb)
                return sa < sb;
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

static int
siftdown(PyListObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject *newitem, *parent, **arr;
    Py_ssize_t parentpos, size = PyList_GET_SIZE(heap);
    int cmp;

    arr = heap->ob_item;
    newitem = arr[pos];
    while (pos > startpos) {
        parentpos = (pos - 1) >> 1;
        parent = arr[parentpos];
        Py_INCREF(newitem);
        Py_INCREF(parent);
        cmp = entry_lt(newitem, parent);
        Py_DECREF(parent);
        Py_DECREF(newitem);
        if (cmp < 0)
            return -1;
        if (size != PyList_GET_SIZE(heap)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "list changed size during iteration");
            return -1;
        }
        if (cmp == 0)
            break;
        arr = heap->ob_item;
        parent = arr[parentpos];
        newitem = arr[pos];
        arr[parentpos] = newitem;
        arr[pos] = parent;
        pos = parentpos;
    }
    return 0;
}

static int
siftup(PyListObject *heap, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos, endpos = PyList_GET_SIZE(heap), childpos,
        limit = endpos >> 1;
    PyObject *tmp1, *tmp2, **arr = heap->ob_item;
    int cmp;

    while (pos < limit) {
        childpos = 2 * pos + 1;
        if (childpos + 1 < endpos) {
            PyObject *a = arr[childpos], *b = arr[childpos + 1];
            Py_INCREF(a);
            Py_INCREF(b);
            cmp = entry_lt(a, b);
            Py_DECREF(a);
            Py_DECREF(b);
            if (cmp < 0)
                return -1;
            childpos += ((unsigned)cmp ^ 1);
            arr = heap->ob_item;
            if (endpos != PyList_GET_SIZE(heap)) {
                PyErr_SetString(PyExc_RuntimeError,
                                "list changed size during iteration");
                return -1;
            }
        }
        tmp1 = arr[childpos];
        tmp2 = arr[pos];
        arr[childpos] = tmp2;
        arr[pos] = tmp1;
        pos = childpos;
    }
    return siftdown(heap, startpos, pos);
}

static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *lastelt, *returnitem;

    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return NULL;
    }
    lastelt = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(lastelt);
    if (PyList_SetSlice(heap, n - 1, n, NULL)) {
        Py_DECREF(lastelt);
        return NULL;
    }
    n--;
    if (!n)
        return lastelt;
    returnitem = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, lastelt);
    if (siftup((PyListObject *)heap, 0)) {
        Py_DECREF(returnitem);
        return NULL;
    }
    return returnitem;
}

static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item))
        return -1;
    return siftdown((PyListObject *)heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* Push (t, s, handle) after setting handle.time = t, handle.fired = False:
 * Simulator.rearm with a reserved seq, inlined as in the Python path. */
static int
rearm(PyObject *sim, PyObject *handle, PyObject *t, PyObject *s)
{
    PyObject *heap, *entry;
    int rc;
    if (!Py_IS_TYPE(handle, HandleType)) {
        PyErr_SetString(PyExc_TypeError, "drain handle is not an EventHandle");
        return -1;
    }
    slot_set(handle, H.time, t);
    slot_set(handle, H.fired, Py_False);
    heap = SLOT(sim, S.heap);
    if (heap == NULL || !PyList_CheckExact(heap)) {
        PyErr_SetString(PyExc_TypeError, "Simulator._heap must be a list");
        return -1;
    }
    entry = PyTuple_Pack(3, t, s, handle);
    if (entry == NULL)
        return -1;
    Py_INCREF(heap);
    rc = heap_push(heap, entry);
    Py_DECREF(heap);
    Py_DECREF(entry);
    return rc;
}

/* Settle a port's drain schedule up to ``now`` (Port._settle inlined in
 * enqueue and Link._drain); stores the settled bytes_queued in *bq_out. */
static int
settle(PyObject *port, PyObject *sim, long long now, long long *bq_out)
{
    PyObject *sched = SLOT(port, P.sched), *head, *item;
    long long bq0, bq, n = 0, finish, size;

    if (!slot_i64(port, P.bytes_queued, &bq0)) {
        PyErr_SetString(PyExc_TypeError, "Port.bytes_queued must be an int");
        return -1;
    }
    bq = bq0;
    while (Py_SIZE(sched) > 0) {
        head = dq_head(sched);
        if (head == NULL)
            return -1;
        if (!PyTuple_CheckExact(head) || PyTuple_GET_SIZE(head) != 2
                || !as_i64(PyTuple_GET_ITEM(head, 0), &finish)
                || !as_i64(PyTuple_GET_ITEM(head, 1), &size)) {
            Py_DECREF(head);
            PyErr_SetString(PyExc_TypeError,
                            "malformed drain schedule entry");
            return -1;
        }
        Py_DECREF(head);
        if (finish > now)
            break;
        item = dq_popleft(sched, NULL);
        if (item == NULL)
            return -1;
        Py_DECREF(item);
        bq -= size;
        n++;
    }
    *bq_out = bq;
    if (n == 0)
        return 0;
    if (slot_add(port, P.tx_bytes, bq0 - bq)
            || slot_set_i64(port, P.bytes_queued, bq)
            || slot_add(sim, S.n_executed, n))
        return -1;
    return 0;
}

static PyObject *
call_fallback(int which, PyObject *a, PyObject *b)
{
    PyObject *args[3] = {NULL, a, b};
    FastMethod *fm = entries[which];
    if (fm == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "fastpath entry not created");
        return NULL;
    }
    return PyObject_Vectorcall(fm->fallback, args + 1,
                               entry_nargs[which]
                               | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

/* ``obj.receive(pkt)`` */
static inline PyObject *
call_receive(PyObject *obj, PyObject *pkt)
{
    PyObject *args[3] = {NULL, obj, pkt};
    return PyObject_VectorcallMethod(s_receive, args + 1,
                                     2 | PY_VECTORCALL_ARGUMENTS_OFFSET,
                                     NULL);
}

/* -- Port.enqueue ---------------------------------------------------------- */

/* ``rng.random()`` as a C double. */
static int
draw(PyObject *rng, double *out)
{
    PyObject *args[2] = {NULL, rng};
    PyObject *r = PyObject_VectorcallMethod(
        s_random, args + 1, 1 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    if (r == NULL)
        return -1;
    *out = PyFloat_AsDouble(r);
    Py_DECREF(r);
    if (*out == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

/* Python's round(x) for a float: nearest, ties to even. */
static inline double
py_round(double x)
{
    double rounded = round(x);
    if (fabs(x - rounded) == 0.5)
        rounded = 2.0 * round(x / 2.0);
    return rounded;
}

static PyObject *
port_enqueue(PyObject *port, PyObject *pkt)
{
    PyObject *sim, *link, *sched, *fifo, *phantom, *q, *cache, *size_o,
        *ser_o, *entry, *seq_o, *finish_o, *deliver_o, *head;
    long long now, size, bq, capacity, busy_until, prop, seq, start,
        finish, ser, last_ps = 0, elapsed;
    double red_min, red_max, red_span, gbps, occ_f = 0.0, drain = 0.0,
        ph_min = 0.0, ph_max = 0.0, r, p;
    int red_marked, phantom_marked = 0, armed;

    /* Guards: everything the fast path reads, checked before any write. */
    if (!Py_IS_TYPE(port, PortType) || !Py_IS_TYPE(pkt, PacketType))
        goto fallback;
    if (SLOT(port, P.events) != Py_None || SLOT(port, P.monitor) != Py_None
            || SLOT(port, P.pfc) != Py_None || SLOT(port, P.batch) != Py_True)
        goto fallback;
    fifo = SLOT(port, P.fifo);
    sched = SLOT(port, P.sched);
    sim = SLOT(port, P.sim);
    link = SLOT(port, P.link);
    if (fifo == NULL || !Py_IS_TYPE(fifo, DequeType) || Py_SIZE(fifo) != 0
            || sched == NULL || !Py_IS_TYPE(sched, DequeType)
            || sim == NULL || !PyObject_TypeCheck(sim, SimType)
            || link == NULL || !Py_IS_TYPE(link, LinkType))
        goto fallback;
    q = SLOT(link, L.inflight);
    cache = SLOT(port, P.ser_cache);
    size_o = SLOT(pkt, K.size);
    if (q == NULL || !Py_IS_TYPE(q, DequeType)
            || cache == NULL || !PyDict_CheckExact(cache)
            || size_o == NULL || !as_i64(size_o, &size)
            || !slot_i64(sim, S.now, &now) || !slot_i64(sim, S.seq, &seq)
            || !slot_i64(port, P.bytes_queued, &bq)
            || !slot_i64(port, P.capacity_bytes, &capacity)
            || !slot_i64(port, P.busy_until, &busy_until)
            || !slot_i64(link, L.prop_ps, &prop)
            || !slot_f64(port, P.red_min_th, &red_min)
            || !slot_f64(port, P.red_max_th, &red_max)
            || !slot_f64(port, P.red_span, &red_span)
            || !slot_f64(port, P.gbps, &gbps)
            || SLOT(port, P.rng) == NULL || SLOT(link, L.drain_armed) == NULL
            || SLOT(link, L.drain_handle) == NULL)
        goto fallback;
    phantom = SLOT(port, P.phantom);
    if (phantom == NULL)
        goto fallback;
    if (phantom != Py_None) {
        if (!Py_IS_TYPE(phantom, PhantomType)
                || SLOT(phantom, Q.occupancy) == NULL
                || !PyFloat_CheckExact(SLOT(phantom, Q.occupancy))
                || SLOT(phantom, Q.drain) == NULL
                || !PyFloat_CheckExact(SLOT(phantom, Q.drain))
                || SLOT(phantom, Q.min_th) == NULL
                || !PyFloat_CheckExact(SLOT(phantom, Q.min_th))
                || SLOT(phantom, Q.max_th) == NULL
                || !PyFloat_CheckExact(SLOT(phantom, Q.max_th))
                || !slot_i64(phantom, Q.last_ps, &last_ps)
                || SLOT(phantom, Q.rng) == NULL)
            goto fallback;
        occ_f = PyFloat_AS_DOUBLE(SLOT(phantom, Q.occupancy));
        drain = PyFloat_AS_DOUBLE(SLOT(phantom, Q.drain));
        ph_min = PyFloat_AS_DOUBLE(SLOT(phantom, Q.min_th));
        ph_max = PyFloat_AS_DOUBLE(SLOT(phantom, Q.max_th));
    }

    /* Settle finished serializations before any decision. */
    if (settle(port, sim, now, &bq))
        return NULL;
    if (bq + size > capacity) {
        if (slot_add(port, P.drops, 1))
            return NULL;
        Py_RETURN_FALSE;
    }
    /* RED, then phantom: the RNG draw order of the reference path. */
    if ((double)bq < red_min)
        red_marked = 0;
    else if ((double)bq >= red_max)
        red_marked = 1;
    else {
        p = red_span > 0 ? ((double)bq - red_min) / red_span : 1.0;
        if (draw(SLOT(port, P.rng), &r))
            return NULL;
        red_marked = r < p;
    }
    if (phantom != Py_None) {
        PyObject *occ_o;
        elapsed = now - last_ps;
        if (elapsed > 0) {
            occ_f -= (double)elapsed * drain;
            if (occ_f < 0.0)
                occ_f = 0.0;
            if (slot_set_i64(phantom, Q.last_ps, now))
                return NULL;
        }
        occ_f += (double)size;
        occ_o = PyFloat_FromDouble(occ_f);
        if (occ_o == NULL)
            return NULL;
        slot_steal(phantom, Q.occupancy, occ_o);
        if (occ_f <= ph_min)
            phantom_marked = 0;
        else if (occ_f >= ph_max)
            phantom_marked = 1;
        else {
            double span = ph_max - ph_min;
            p = span > 0 ? (occ_f - ph_min) / span : 1.0;
            if (draw(SLOT(phantom, Q.rng), &r))
                return NULL;
            phantom_marked = r < p;
        }
    }
    if (red_marked || phantom_marked) {
        slot_set(pkt, K.ecn, Py_True);
        if (slot_add(port, P.marked_pkts, 1)
                || (red_marked && slot_add(port, P.red_marked_pkts, 1))
                || (phantom_marked
                    && slot_add(port, P.phantom_marked_pkts, 1)))
            return NULL;
    }
    if (slot_add(port, P.enqueued_pkts, 1)
            || slot_set_i64(port, P.bytes_queued, bq + size))
        return NULL;

    /* Commit: serialization finish from the memoized ser time. */
    ser_o = PyDict_GetItemWithError(cache, size_o);
    if (ser_o != NULL) {
        if (!as_i64(ser_o, &ser)) {
            PyErr_SetString(PyExc_TypeError, "ser-time memo must hold ints");
            return NULL;
        }
    }
    else {
        if (PyErr_Occurred())
            return NULL;
        ser = (long long)py_round((double)(size * 8000) / gbps);
        if (ser < 1)
            ser = 1;
        ser_o = PyLong_FromLongLong(ser);
        if (ser_o == NULL || PyDict_SetItem(cache, size_o, ser_o)) {
            Py_XDECREF(ser_o);
            return NULL;
        }
        Py_DECREF(ser_o);
    }
    start = busy_until < now ? now : busy_until;
    finish = start + ser;
    finish_o = PyLong_FromLongLong(finish);
    if (finish_o == NULL)
        return NULL;
    slot_set(port, P.busy_until, finish_o);
    entry = PyTuple_Pack(2, finish_o, size_o);
    Py_DECREF(finish_o);
    if (entry == NULL || dq_push(sched, entry)) {
        Py_XDECREF(entry);
        return NULL;
    }
    Py_DECREF(entry);
    /* Into the link's in-flight deque, seq reserved at commit. */
    seq_o = PyLong_FromLongLong(seq + 1);
    if (seq_o == NULL)
        return NULL;
    slot_set(sim, S.seq, seq_o);
    deliver_o = PyLong_FromLongLong(finish + prop);
    if (deliver_o == NULL) {
        Py_DECREF(seq_o);
        return NULL;
    }
    entry = PyTuple_Pack(3, deliver_o, seq_o, pkt);
    Py_DECREF(deliver_o);
    Py_DECREF(seq_o);
    if (entry == NULL || dq_push(q, entry)) {
        Py_XDECREF(entry);
        return NULL;
    }
    Py_DECREF(entry);
    armed = truth(SLOT(link, L.drain_armed));
    if (armed < 0)
        return NULL;
    if (!armed) {
        PyObject *handle, *t, *s;
        int rc;
        slot_set(link, L.drain_armed, Py_True);
        head = dq_head(q);
        if (head == NULL)
            return NULL;
        if (!PyTuple_CheckExact(head) || PyTuple_GET_SIZE(head) != 3) {
            Py_DECREF(head);
            PyErr_SetString(PyExc_TypeError, "malformed in-flight entry");
            return NULL;
        }
        t = PyTuple_GET_ITEM(head, 0);
        s = PyTuple_GET_ITEM(head, 1);
        handle = SLOT(link, L.drain_handle);
        if (handle == Py_None) {
            /* First arm: link._drain_handle = sim.at_seq(t, s, link._drain) */
            PyObject *fn = PyObject_GetAttr(link, s__drain);
            if (fn == NULL) {
                Py_DECREF(head);
                return NULL;
            }
            PyObject *args[5] = {NULL, sim, t, s, fn};
            handle = PyObject_VectorcallMethod(
                s_at_seq, args + 1, 4 | PY_VECTORCALL_ARGUMENTS_OFFSET,
                NULL);
            Py_DECREF(fn);
            Py_DECREF(head);
            if (handle == NULL)
                return NULL;
            slot_steal(link, L.drain_handle, handle);
        }
        else {
            Py_INCREF(handle);
            rc = rearm(sim, handle, t, s);
            Py_DECREF(handle);
            Py_DECREF(head);
            if (rc)
                return NULL;
        }
    }
    Py_RETURN_TRUE;

fallback:
    return call_fallback(ENTRY_ENQUEUE, port, pkt);
}

/* -- Switch.receive --------------------------------------------------------- */

static inline PyObject *
port_receive(PyObject *port, PyObject *pkt)
{
    if (Py_IS_TYPE(port, PortType)
            && attr_is_entry(PortType, s_receive, entries[ENTRY_ENQUEUE],
                             &port_receive_tag))
        return port_enqueue(port, pkt);
    return call_receive(port, pkt);
}

static PyObject *
ecmp_hash(PyObject *sw, PyObject *pkt, PyObject *cache)
{
    /* Memoized flow_hash(src, dst, sport, dport, salt); new reference. */
    PyObject *key, *h, *fn;
    key = PyTuple_Pack(4, SLOT(pkt, K.src), SLOT(pkt, K.dst),
                       SLOT(pkt, K.sport), SLOT(pkt, K.dport));
    if (key == NULL)
        return NULL;
    h = PyDict_GetItemWithError(cache, key);
    if (h != NULL) {
        Py_INCREF(h);
        Py_DECREF(key);
        return h;
    }
    if (PyErr_Occurred()) {
        Py_DECREF(key);
        return NULL;
    }
    if (PyDict_GET_SIZE(cache) >= HASH_CACHE_MAX)
        PyDict_Clear(cache);
    fn = PyDict_GetItemWithError(switch_globals, s_flow_hash);
    if (fn == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_NameError, "flow_hash is not defined");
        Py_DECREF(key);
        return NULL;
    }
    PyObject *args[6] = {NULL, SLOT(pkt, K.src), SLOT(pkt, K.dst),
                         SLOT(pkt, K.sport), SLOT(pkt, K.dport),
                         SLOT(sw, W.salt)};
    Py_INCREF(fn);
    h = PyObject_Vectorcall(fn, args + 1,
                            5 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    Py_DECREF(fn);
    if (h == NULL || PyDict_SetItem(cache, key, h)) {
        Py_XDECREF(h);
        Py_DECREF(key);
        return NULL;
    }
    Py_DECREF(key);
    return h;
}

static PyObject *
switch_receive(PyObject *sw, PyObject *pkt)
{
    PyObject *nexthops, *choices, *port, *cache = NULL, *mode, *res;
    long long kind;
    Py_ssize_t n;

    if (!Py_IS_TYPE(sw, SwitchType) || !Py_IS_TYPE(pkt, PacketType))
        goto fallback;
    if (SLOT(sw, W.up) != Py_True || SLOT(sw, W.qcn) != Py_None
            || !slot_i64(pkt, K.kind, &kind) || kind > CNP_KIND
            || SLOT(pkt, K.dst) == NULL || SLOT(pkt, K.hops) == NULL
            || SLOT(sw, W.rx_pkts) == NULL)
        goto fallback;
    nexthops = SLOT(sw, W.nexthops);
    if (nexthops == NULL || !PyDict_CheckExact(nexthops))
        goto fallback;
    choices = PyDict_GetItemWithError(nexthops, SLOT(pkt, K.dst));
    if (choices == NULL) {
        if (PyErr_Occurred())
            return NULL;
        goto fallback;  /* unknown route: the reference raises */
    }
    if (!PyTuple_CheckExact(choices) || (n = PyTuple_GET_SIZE(choices)) == 0)
        goto fallback;  /* routed drop */
    if (n > 1) {
        mode = SLOT(sw, W.mode);
        cache = SLOT(sw, W.hash_cache);
        if (mode == NULL || !PyUnicode_CheckExact(mode)
                || PyUnicode_CompareWithASCIIString(mode, "rps") == 0
                || cache == NULL || !PyDict_CheckExact(cache)
                || SLOT(sw, W.salt) == NULL
                || SLOT(sw, W.multipath_pkts) == NULL
                || SLOT(pkt, K.src) == NULL || SLOT(pkt, K.sport) == NULL
                || SLOT(pkt, K.dport) == NULL)
            goto fallback;
    }

    Py_INCREF(choices);
    if (slot_add(sw, W.rx_pkts, 1) || slot_add(pkt, K.hops, 1))
        goto error;
    if (n == 1)
        port = PyTuple_GET_ITEM(choices, 0);
    else {
        /* flow_hash masks to 64 bits, so the hash fits. */
        PyObject *h = ecmp_hash(sw, pkt, cache);
        unsigned long long hv;
        if (h == NULL)
            goto error;
        hv = PyLong_AsUnsignedLongLong(h);
        Py_DECREF(h);
        if (hv == (unsigned long long)-1 && PyErr_Occurred())
            goto error;
        port = PyTuple_GET_ITEM(choices,
                                (Py_ssize_t)(hv % (unsigned long long)n));
        if (slot_add(sw, W.multipath_pkts, 1))
            goto error;
    }
    res = port_receive(port, pkt);
    Py_DECREF(choices);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;

error:
    Py_DECREF(choices);
    return NULL;

fallback:
    return call_fallback(ENTRY_SWITCH, sw, pkt);
}

/* -- Link._drain ------------------------------------------------------------- */

static inline PyObject *
sink_receive(PyObject *sink, PyObject *pkt)
{
    if (Py_IS_TYPE(sink, SwitchType)
            && attr_is_entry(SwitchType, s_receive, entries[ENTRY_SWITCH],
                             &switch_receive_tag))
        return switch_receive(sink, pkt);
    return call_receive(sink, pkt);
}

static PyObject *
link_drain(PyObject *link)
{
    PyObject *sim, *q, *port, *sink, *now_o, *head, *item, *pkt, *res;
    long long now, bq, delivered = 0;
    int due;

    if (!Py_IS_TYPE(link, LinkType))
        goto fallback;
    sim = SLOT(link, L.sim);
    q = SLOT(link, L.inflight);
    port = SLOT(link, L.port);
    sink = SLOT(link, L.sink);
    if (sim == NULL || !PyObject_TypeCheck(sim, SimType)
            || q == NULL || !Py_IS_TYPE(q, DequeType)
            || port == NULL || sink == NULL
            || SLOT(link, L.delivered_pkts) == NULL
            || SLOT(link, L.drain_handle) == NULL)
        goto fallback;
    now_o = SLOT(sim, S.now);
    if (now_o == NULL || !as_i64(now_o, &now))
        goto fallback;
    if (port != Py_None) {
        PyObject *sched = SLOT(port, P.sched);
        if (!Py_IS_TYPE(port, PortType) || sched == NULL
                || !Py_IS_TYPE(sched, DequeType)
                || !slot_i64(port, P.bytes_queued, &bq)
                || SLOT(port, P.tx_bytes) == NULL
                || SLOT(sim, S.n_executed) == NULL)
            goto fallback;
    }

    slot_set(link, L.drain_armed, Py_False);
    if (port != Py_None && settle(port, sim, now, &bq))
        return NULL;
    Py_INCREF(sink);
    Py_INCREF(now_o);
    while (Py_SIZE(q) > 0) {
        head = dq_head(q);
        if (head == NULL)
            goto error;
        if (!PyTuple_CheckExact(head) || PyTuple_GET_SIZE(head) != 3) {
            Py_DECREF(head);
            PyErr_SetString(PyExc_TypeError, "malformed in-flight entry");
            goto error;
        }
        due = obj_le(PyTuple_GET_ITEM(head, 0), now_o);
        Py_DECREF(head);
        if (due < 0)
            goto error;
        if (!due)
            break;
        item = dq_popleft(q, NULL);
        if (item == NULL)
            goto error;
        pkt = PyTuple_GET_ITEM(item, 2);
        Py_INCREF(pkt);
        Py_DECREF(item);
        delivered++;
        res = sink_receive(sink, pkt);
        Py_DECREF(pkt);
        if (res == NULL)
            goto error;
        Py_DECREF(res);
    }
    Py_DECREF(sink);
    Py_DECREF(now_o);
    if (delivered && slot_add(link, L.delivered_pkts, delivered))
        return NULL;
    if (Py_SIZE(q) > 0) {
        PyObject *handle;
        int rc;
        head = dq_head(q);
        if (head == NULL)
            return NULL;
        if (!PyTuple_CheckExact(head) || PyTuple_GET_SIZE(head) != 3) {
            Py_DECREF(head);
            PyErr_SetString(PyExc_TypeError, "malformed in-flight entry");
            return NULL;
        }
        slot_set(link, L.drain_armed, Py_True);
        handle = SLOT(link, L.drain_handle);
        Py_INCREF(handle);
        rc = rearm(sim, handle, PyTuple_GET_ITEM(head, 0),
                   PyTuple_GET_ITEM(head, 1));
        Py_DECREF(handle);
        Py_DECREF(head);
        if (rc)
            return NULL;
    }
    Py_RETURN_NONE;

error:
    Py_DECREF(sink);
    Py_DECREF(now_o);
    return NULL;

fallback:
    return call_fallback(ENTRY_DRAIN, link, NULL);
}

/* -- FastMethod ------------------------------------------------------------ */

static inline PyObject *
entry_call(FastMethod *fm, PyObject *const *args)
{
    switch (fm->which) {
    case ENTRY_ENQUEUE:
        return port_enqueue(args[0], args[1]);
    case ENTRY_DRAIN:
        return link_drain(args[0]);
    default:
        return switch_receive(args[0], args[1]);
    }
}

static PyObject *
fm_vectorcall(PyObject *callable, PyObject *const *args, size_t nargsf,
              PyObject *kwnames)
{
    FastMethod *fm = (FastMethod *)callable;
    if (kwnames == NULL
            && PyVectorcall_NARGS(nargsf) == entry_nargs[fm->which])
        return entry_call(fm, args);
    return PyObject_Vectorcall(fm->fallback, args, nargsf, kwnames);
}

static PyObject *
fm_descr_get(PyObject *self, PyObject *obj, PyObject *type)
{
    if (obj == NULL || obj == Py_None) {
        Py_INCREF(self);
        return self;
    }
    return PyMethod_New(self, obj);
}

static void
fm_dealloc(FastMethod *fm)
{
    Py_XDECREF(fm->fallback);
    Py_TYPE(fm)->tp_free((PyObject *)fm);
}

static PyObject *
fm_repr(FastMethod *fm)
{
    PyObject *qn = PyObject_GetAttrString(fm->fallback, "__qualname__");
    PyObject *r;
    if (qn == NULL)
        return NULL;
    r = PyUnicode_FromFormat("<compiled %U>", qn);
    Py_DECREF(qn);
    return r;
}

/* __name__, __qualname__, __module__ and __doc__ are the reference
 * method's, so profilers and tracebacks name the readable site. */
static PyObject *
fm_forward(FastMethod *fm, void *name)
{
    return PyObject_GetAttrString(fm->fallback, (const char *)name);
}

static PyGetSetDef fm_getset[] = {
    {"__name__", (getter)fm_forward, NULL, NULL, "__name__"},
    {"__qualname__", (getter)fm_forward, NULL, NULL, "__qualname__"},
    {"__module__", (getter)fm_forward, NULL, NULL, "__module__"},
    {"__doc__", (getter)fm_forward, NULL, NULL, "__doc__"},
    {NULL}
};

static PyMemberDef fm_members[] = {
    {"__wrapped__", T_OBJECT, offsetof(FastMethod, fallback), READONLY,
     "The reference Python method this entry defers to."},
    {NULL}
};

static PyTypeObject FastMethodType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._fastpath.method",
    .tp_basicsize = sizeof(FastMethod),
    .tp_dealloc = (destructor)fm_dealloc,
    .tp_vectorcall_offset = offsetof(FastMethod, vectorcall),
    .tp_repr = (reprfunc)fm_repr,
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_METHOD_DESCRIPTOR
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_getset = fm_getset,
    .tp_members = fm_members,
    .tp_descr_get = fm_descr_get,
};

/* -- the event loop ---------------------------------------------------------- */

/* ``fn(*args)`` for an args tuple; a bound C entry is called directly. */
static inline PyObject *
dispatch(PyObject *fn, PyObject *args)
{
    Py_ssize_t n = PyTuple_GET_SIZE(args);
    if (Py_IS_TYPE(fn, &PyMethod_Type)
            && Py_IS_TYPE(PyMethod_GET_FUNCTION(fn), &FastMethodType)) {
        FastMethod *fm = (FastMethod *)PyMethod_GET_FUNCTION(fn);
        if (n + 1 == entry_nargs[fm->which]) {
            PyObject *stack[2] = {PyMethod_GET_SELF(fn),
                                  n ? PyTuple_GET_ITEM(args, 0) : NULL};
            return entry_call(fm, stack);
        }
    }
    return PyObject_Vectorcall(fn, &PyTuple_GET_ITEM(args, 0), n, NULL);
}

PyDoc_STRVAR(run_doc,
"run(sim, until, max_events) -> int\n\n"
"The lean Simulator.run loop: pop events until the heap empties, the\n"
"next event lies past ``until`` (pushed back), or ``max_events``\n"
"callbacks ran. Returns the callbacks executed; exceptions raised by a\n"
"callback propagate. The caller settles ``now`` and the event count.");

static PyObject *
fp_run(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *sim, *until, *heap, *entry, *time, *handle, *fn, *fargs, *r,
        *cancelled;
    long long limit = 0, budget = -1, executed = 0, t, nc;
    int nolimit = 0, past, c;

    if (!bound) {
        PyErr_SetString(PyExc_RuntimeError, "fastpath is not bound");
        return NULL;
    }
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "run(sim, until, max_events)");
        return NULL;
    }
    sim = args[0];
    until = args[1];
    if (!PyObject_TypeCheck(sim, SimType)) {
        PyErr_SetString(PyExc_TypeError, "run() needs a Simulator");
        return NULL;
    }
    heap = SLOT(sim, S.heap);
    if (heap == NULL || !PyList_CheckExact(heap)) {
        PyErr_SetString(PyExc_TypeError, "Simulator._heap must be a list");
        return NULL;
    }
    if (until == Py_None)
        nolimit = 1;
    else if (PyLong_CheckExact(until)) {
        int overflow;
        limit = PyLong_AsLongLongAndOverflow(until, &overflow);
        if (overflow > 0)
            nolimit = 1;
        else if (overflow < 0)
            limit = LLONG_MIN;
        else if (limit == -1 && PyErr_Occurred())
            return NULL;
    }
    if (args[2] != Py_None) {
        budget = PyLong_AsLongLong(args[2]);
        if (budget == -1 && PyErr_Occurred())
            return NULL;
    }
    Py_INCREF(heap);
    while (PyList_GET_SIZE(heap) > 0) {
        entry = heap_pop(heap);
        if (entry == NULL)
            goto error;
        if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 3) {
            PyErr_SetString(PyExc_TypeError, "malformed heap entry");
            goto error_entry;
        }
        time = PyTuple_GET_ITEM(entry, 0);
        handle = PyTuple_GET_ITEM(entry, 2);
        if (nolimit)
            past = 0;
        else if (PyLong_CheckExact(until) && as_i64(time, &t))
            past = t > limit;
        else if ((past = PyObject_RichCompareBool(time, until, Py_GT)) < 0)
            goto error_entry;
        if (past) {
            if (heap_push(heap, entry))
                goto error_entry;
            Py_DECREF(entry);
            break;
        }
        /* The engine only ever schedules EventHandles. */
        if (!Py_IS_TYPE(handle, HandleType)
                || (cancelled = SLOT(handle, H.cancelled)) == NULL
                || SLOT(handle, H.fn) == NULL || SLOT(handle, H.args) == NULL
                || !PyTuple_CheckExact(SLOT(handle, H.args))) {
            PyErr_SetString(PyExc_TypeError, "malformed heap entry");
            goto error_entry;
        }
        if ((c = truth(cancelled)) < 0)
            goto error_entry;
        if (c) {
            if (slot_i64(sim, S.n_cancelled, &nc)) {
                if (slot_set_i64(sim, S.n_cancelled, nc - 1))
                    goto error_entry;
            }
            else if (slot_add(sim, S.n_cancelled, -1))
                goto error_entry;
            Py_DECREF(entry);
            continue;
        }
        slot_set(sim, S.now, time);
        slot_set(handle, H.fired, Py_True);
        /* Own fn and args for the call: the callback may cancel or
         * re-arm its own handle. */
        fn = SLOT(handle, H.fn);
        fargs = SLOT(handle, H.args);
        Py_INCREF(fn);
        Py_INCREF(fargs);
        r = dispatch(fn, fargs);
        Py_DECREF(fn);
        Py_DECREF(fargs);
        Py_DECREF(entry);
        if (r == NULL)
            goto error;
        Py_DECREF(r);
        executed++;
        if (executed == budget)
            break;
        if ((executed & 0x3FFF) == 0 && PyErr_CheckSignals())
            goto error;
    }
    Py_DECREF(heap);
    return PyLong_FromLongLong(executed);

error_entry:
    Py_DECREF(entry);
error:
    Py_DECREF(heap);
    return NULL;
}

/* -- binding -------------------------------------------------------------- */

static int
resolve(PyTypeObject *tp, const OffsetSpec *specs)
{
    for (; specs->name != NULL; specs++) {
        PyObject *d = PyObject_GetAttrString((PyObject *)tp, specs->name);
        if (d == NULL)
            return -1;
        if (!Py_IS_TYPE(d, &PyMemberDescr_Type)
                || ((PyMemberDescrObject *)d)->d_member->type != T_OBJECT_EX) {
            PyErr_Format(PyExc_TypeError, "%s.%s is not a __slots__ member",
                         tp->tp_name, specs->name);
            Py_DECREF(d);
            return -1;
        }
        *specs->dst = ((PyMemberDescrObject *)d)->d_member->offset;
        Py_DECREF(d);
    }
    return 0;
}

static PyCFunction
method_impl(PyTypeObject *tp, const char *name, int flags)
{
    PyObject *d = PyObject_GetAttrString((PyObject *)tp, name);
    PyCFunction f = NULL;
    if (d == NULL)
        return NULL;
    if (Py_IS_TYPE(d, &PyMethodDescr_Type)
            && ((PyMethodDescrObject *)d)->d_method->ml_flags == flags)
        f = ((PyMethodDescrObject *)d)->d_method->ml_meth;
    else
        PyErr_Format(PyExc_TypeError, "unexpected %s.%s", tp->tp_name, name);
    Py_DECREF(d);
    return f;
}

static int
check_type(PyObject *o, const char *what)
{
    if (!PyType_Check(o)) {
        PyErr_Format(PyExc_TypeError, "%s must be a class", what);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(bind_doc,
"bind(Simulator, EventHandle, Port, Link, Switch, Packet, PhantomQueue,\n"
"     deque, switch_namespace)\n\n"
"Resolve the classes' __slots__ member offsets and the deque primitives.\n"
"Raises if any class does not have the expected slotted layout.");

static PyObject *
fp_bind(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *what[] = {"Simulator", "EventHandle", "Port", "Link",
                                 "Switch", "Packet", "PhantomQueue",
                                 "deque"};
    PyTypeObject *types[8];
    int i;

    if (nargs != 9 || !PyDict_Check(args[8])) {
        PyErr_SetString(PyExc_TypeError, "bind() takes 8 classes and a dict");
        return NULL;
    }
    for (i = 0; i < 8; i++) {
        if (check_type(args[i], what[i]))
            return NULL;
        types[i] = (PyTypeObject *)args[i];
    }
    {
        OffsetSpec sim[] = {{&S.now, "now"}, {&S.heap, "_heap"},
                            {&S.seq, "_seq"}, {&S.n_executed, "_n_executed"},
                            {&S.n_cancelled, "_n_cancelled"}, {NULL, NULL}};
        OffsetSpec handle[] = {{&H.time, "time"}, {&H.fn, "fn"},
                               {&H.args, "args"},
                               {&H.cancelled, "cancelled"},
                               {&H.fired, "fired"}, {NULL, NULL}};
        OffsetSpec port[] = {
            {&P.sim, "sim"}, {&P.link, "link"}, {&P.events, "_events"},
            {&P.monitor, "monitor"}, {&P.pfc, "pfc"}, {&P.batch, "_batch"},
            {&P.fifo, "_fifo"}, {&P.sched, "_sched"},
            {&P.bytes_queued, "bytes_queued"}, {&P.tx_bytes, "tx_bytes"},
            {&P.capacity_bytes, "capacity_bytes"}, {&P.drops, "drops"},
            {&P.red_min_th, "_red_min_th"}, {&P.red_max_th, "_red_max_th"},
            {&P.red_span, "_red_span"}, {&P.rng, "_rng"},
            {&P.phantom, "phantom"}, {&P.marked_pkts, "marked_pkts"},
            {&P.red_marked_pkts, "red_marked_pkts"},
            {&P.phantom_marked_pkts, "phantom_marked_pkts"},
            {&P.enqueued_pkts, "enqueued_pkts"},
            {&P.ser_cache, "_ser_cache"}, {&P.gbps, "_gbps"},
            {&P.busy_until, "_busy_until"}, {NULL, NULL}};
        OffsetSpec link[] = {
            {&L.sim, "sim"}, {&L.inflight, "_inflight"},
            {&L.drain_armed, "_drain_armed"},
            {&L.drain_handle, "_drain_handle"}, {&L.port, "_port"},
            {&L.sink, "_sink"}, {&L.prop_ps, "prop_ps"},
            {&L.delivered_pkts, "delivered_pkts"}, {NULL, NULL}};
        OffsetSpec switch_[] = {
            {&W.up, "up"}, {&W.qcn, "qcn"}, {&W.nexthops, "nexthops"},
            {&W.rx_pkts, "rx_pkts"}, {&W.mode, "mode"},
            {&W.hash_cache, "_hash_cache"}, {&W.salt, "salt"},
            {&W.multipath_pkts, "multipath_pkts"}, {NULL, NULL}};
        OffsetSpec packet[] = {
            {&K.kind, "kind"}, {&K.src, "src"}, {&K.dst, "dst"},
            {&K.sport, "sport"}, {&K.dport, "dport"}, {&K.size, "size"},
            {&K.ecn, "ecn"}, {&K.hops, "hops"}, {NULL, NULL}};
        OffsetSpec phantom[] = {
            {&Q.occupancy, "occupancy"}, {&Q.drain, "_drain_bytes_per_ps"},
            {&Q.last_ps, "_last_ps"}, {&Q.min_th, "min_th"},
            {&Q.max_th, "max_th"}, {&Q.rng, "_rng"}, {NULL, NULL}};
        if (resolve(types[0], sim) || resolve(types[1], handle)
                || resolve(types[2], port) || resolve(types[3], link)
                || resolve(types[4], switch_) || resolve(types[5], packet)
                || resolve(types[6], phantom))
            return NULL;
    }
    dq_append = method_impl(types[7], "append", METH_O);
    if (dq_append == NULL)
        return NULL;
    dq_popleft = method_impl(types[7], "popleft", METH_NOARGS);
    if (dq_popleft == NULL)
        return NULL;
    for (i = 0; i < 8; i++)
        Py_INCREF(types[i]);
    SimType = types[0];
    HandleType = types[1];
    PortType = types[2];
    LinkType = types[3];
    SwitchType = types[4];
    PacketType = types[5];
    PhantomType = types[6];
    DequeType = types[7];
    Py_INCREF(args[8]);
    Py_XSETREF(switch_globals, args[8]);
    bound = 1;
    Py_RETURN_NONE;
}

PyDoc_STRVAR(entry_doc,
"entry(name, fallback) -> descriptor\n\n"
"The compiled entry ``name`` (enqueue, drain or switch_receive) as a\n"
"method descriptor that defers to ``fallback`` for every case it does\n"
"not handle. Install it as the class attribute it replaces.");

static PyObject *
fp_entry(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    FastMethod *fm;
    int which;

    if (!bound) {
        PyErr_SetString(PyExc_RuntimeError, "call bind() first");
        return NULL;
    }
    if (nargs != 2 || !PyUnicode_Check(args[0]) || !PyCallable_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "entry(name, fallback)");
        return NULL;
    }
    for (which = 0; which < N_ENTRIES; which++)
        if (PyUnicode_CompareWithASCIIString(args[0], entry_names[which]) == 0)
            break;
    if (which == N_ENTRIES) {
        PyErr_Format(PyExc_ValueError, "unknown entry %R", args[0]);
        return NULL;
    }
    fm = PyObject_New(FastMethod, &FastMethodType);
    if (fm == NULL)
        return NULL;
    fm->which = which;
    Py_INCREF(args[1]);
    fm->fallback = args[1];
    fm->vectorcall = fm_vectorcall;
    Py_INCREF(fm);
    Py_XSETREF(entries[which], fm);
    port_receive_tag = switch_receive_tag = 0;
    return (PyObject *)fm;
}

static PyMethodDef fp_methods[] = {
    {"bind", (PyCFunction)(void (*)(void))fp_bind, METH_FASTCALL, bind_doc},
    {"entry", (PyCFunction)(void (*)(void))fp_entry, METH_FASTCALL,
     entry_doc},
    {"run", (PyCFunction)(void (*)(void))fp_run, METH_FASTCALL, run_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef fp_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fastpath",
    .m_doc = "Compiled per-packet fabric hot path (see repro.sim.fastpath).",
    .m_size = -1,
    .m_methods = fp_methods,
};

PyMODINIT_FUNC
PyInit__fastpath(void)
{
    PyObject *m;
    if (PyType_Ready(&FastMethodType) < 0)
        return NULL;
    s_receive = PyUnicode_InternFromString("receive");
    s_random = PyUnicode_InternFromString("random");
    s_at_seq = PyUnicode_InternFromString("at_seq");
    s__drain = PyUnicode_InternFromString("_drain");
    s_flow_hash = PyUnicode_InternFromString("flow_hash");
    if (!s_receive || !s_random || !s_at_seq || !s__drain || !s_flow_hash)
        return NULL;
    m = PyModule_Create(&fp_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&FastMethodType);
    if (PyModule_AddObject(m, "method", (PyObject *)&FastMethodType) < 0) {
        Py_DECREF(&FastMethodType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
