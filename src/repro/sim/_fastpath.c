/*
 * Compiled per-packet hot path (CPython C API, CPython headers only).
 *
 * Implements, bit-identically to the pure-Python reference in engine.py,
 * link.py, switch.py, queues.py, host.py, transport/base.py,
 * core/unocc.py and core/unolb.py:
 *
 *   run()            the lean Simulator.run event loop;
 *   Link._drain      delivery drain, including the settle of the feeding
 *                    port's batch-advance schedule;
 *   Switch.receive   the up / kind <= CNP / no-QCN / ECMP-or-single-path
 *                    forwarding case;
 *   Port.enqueue     the batch-advance fast path: settle, tail drop, RED,
 *                    inlined phantom marking, ser-time memo, commit to the
 *                    link's in-flight deque, arming the link drain;
 *   Host.receive     dispatch of DATA/ACK to the flow's endpoint;
 *   Receiver.on_packet
 *                    DATA -> handle_data -> send_ack -> make_ack ->
 *                    Host.send -> Port.enqueue;
 *   Sender.on_packet / _on_ack
 *                    a new in-order-or-not ACK, with UnoCC.on_ack
 *                    (EpochTracker.on_ack inlined) and UnoLB.on_ack;
 *   Sender._maybe_send / _emit / _pace_wakeup
 *                    new-data sends with pacing, UnoLB / FixedEntropy
 *                    path entropy and Host.send;
 *   UnoCC.on_ack     the same congestion-control step on its own.
 *
 * State is read and written at the ``__slots__`` member offsets resolved
 * once by bind() from the classes' member descriptors. Every entry checks
 * exact types (Port, Switch, Link, Packet, EventHandle, PhantomQueue,
 * Host, Sender, Receiver, UnoCC, EpochTracker, UnoLB, FixedEntropy,
 * SenderStats, and an exact Simulator with telemetry off) and the few
 * conditions it handles *before* it changes any state; anything else
 * calls the reference Python method it replaces (its ``fallback``). The
 * transport entries hand UnoRC endpoints, control ACKs, NACK/CNP/PAUSE,
 * duplicate ACKs, retransmissions, the first ACK of a flow (it starts
 * Quick Adapt) and a receiver's first DATA packet (it arms the idle
 * timer) to the reference path; an epoch close and a possible flow
 * completion call the reference ``UnoCC._on_epoch`` and
 * ``Sender._check_done``. One C entry calls another directly only while
 * the class attribute is still that entry, so class-level wrappers
 * (tracers) see every call.
 *
 * Float arithmetic must round exactly as Python's does: the loader
 * compiles with -ffp-contract=off so that ``x += g * (y - x)`` is never
 * fused into one FMA.
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

#ifdef __clang__
#pragma STDC FP_CONTRACT OFF
#endif

#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))

/* -- bound classes and member offsets ----------------------------------- */

static PyTypeObject *SimType, *HandleType, *PortType, *LinkType,
    *SwitchType, *PacketType, *PhantomType, *DequeType, *HostType,
    *SenderType, *ReceiverType, *StatsType, *UnoCCType, *TrackerType,
    *UnoLBType, *FixedType;
static PyObject *SummaryType;     /* EpochSummary, called on epoch close */
static long long header_bytes, ack_size;  /* HEADER_BYTES, ACK_SIZE */
static PyObject *switch_globals;  /* repro.sim.switch namespace (flow_hash) */
static PyCFunction dq_append, dq_popleft;
static int bound;

static struct { Py_ssize_t now, heap, seq, n_executed, n_cancelled, obs; } S;
static struct { Py_ssize_t time, fn, args, cancelled, fired, sim; } H;
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
static struct {
    Py_ssize_t kind, flow_id, src, dst, sport, dport, seq, size, payload,
        ecn, sent_ps, echo_sent_ps, ecn_echo, block_id, block_pos,
        nack_block, retx, hops, int_util;
} K;
static struct {
    Py_ssize_t node_id, up, endpoints, rx_pkts, orphan_pkts, uplink;
} O;
static struct {
    Py_ssize_t sim, flow_id, src, dst, size_bytes, cc, mss, base_rtt_ps,
        line_gbps, path, total_data_pkts, next_seq, outstanding,
        inflight_bytes, acked_seqs, retx_queue, lost_seqs, cwnd,
        pacing_rate_gbps, min_rtt_ps, srtt_ps, rttvar_ps, next_pace_ps,
        pace_handle, rto_backoff, consecutive_timeouts, aborted, stats,
        done, obs, events, spans, counters;
} D;
static struct {
    Py_ssize_t sim, host, spans, rx_data_pkts, idle_timeout_ps, last_rx_ps,
        idle_handle;
} R;
static struct {
    Py_ssize_t bytes_acked, data_pkts_sent, parity_pkts_sent, first_send_ps;
} T;
static struct {
    Py_ssize_t config, tracker, alpha_bytes, qa_started, slow_start,
        max_cwnd;
} C;
static struct {
    Py_ssize_t period_ps, t_epoch, total, marked, max_rel_delay,
        epochs_closed;
} E;
static struct { Py_ssize_t entropies, index, last_ack_ps, n_subflows; } B;
static struct { Py_ssize_t value; } F;

typedef struct { Py_ssize_t *dst; const char *name; } OffsetSpec;

static PyObject *s_receive, *s_random, *s_at_seq, *s__drain, *s_flow_hash,
    *s_on_packet, *s__on_ack, *s__maybe_send, *s__emit, *s_on_ack,
    *s__pace_wakeup, *s_send, *s__on_epoch, *s__check_done, *s_use_pacing;
static PyObject *int_zero, *int_one, *float_zero, *empty_tuple;

#define DATA_KIND 0
#define ACK_KIND 1
#define CNP_KIND 3
#define HASH_CACHE_MAX 65536

/* -- the entry descriptor ------------------------------------------------ */

enum {
    ENTRY_ENQUEUE, ENTRY_DRAIN, ENTRY_SWITCH, ENTRY_HOST, ENTRY_RECEIVER,
    ENTRY_SENDER, ENTRY_ON_ACK, ENTRY_MAYBE_SEND, ENTRY_EMIT, ENTRY_PACE,
    ENTRY_UNOCC, N_ENTRIES
};
static const char *const entry_names[N_ENTRIES] = {
    "enqueue", "drain", "switch_receive", "host_receive",
    "receiver_on_packet", "sender_on_packet", "sender_on_ack",
    "maybe_send", "emit", "pace_wakeup", "unocc_on_ack"};
static const Py_ssize_t entry_nargs[N_ENTRIES] = {2, 1, 2, 2, 2, 2, 2, 1,
                                                  2, 1, 5};
#define MAX_NARGS 5

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
/* Per entry, the type version tag under which the one class attribute
 * the C code checks for it was last seen to be the entry (0 = unknown);
 * see attr_is(). */
static unsigned int entry_tags[N_ENTRIES];

static PyObject *port_enqueue(PyObject *port, PyObject *pkt);
static PyObject *link_drain(PyObject *link);
static PyObject *switch_receive(PyObject *sw, PyObject *pkt);
static PyObject *host_receive(PyObject *host, PyObject *pkt);
static PyObject *receiver_on_packet(PyObject *rcv, PyObject *pkt);
static PyObject *sender_on_packet(PyObject *s, PyObject *pkt);
static PyObject *sender_on_ack(PyObject *s, PyObject *pkt);
static PyObject *sender_maybe_send(PyObject *s);
static PyObject *sender_emit(PyObject *s, PyObject *seq_o);
static PyObject *sender_pace_wakeup(PyObject *s);
static PyObject *unocc_on_ack(PyObject *const *args);

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

/* True while ``tp.<name>`` is still the entry ``which``. The answer is
 * cached under the type's version tag, which CPython invalidates on every
 * class attribute assignment, so a freshly installed wrapper is seen at
 * once. */
static inline int
attr_is(PyTypeObject *tp, PyObject *name, int which)
{
    PyObject *v;
    FastMethod *entry = entries[which];
    unsigned int *tag = &entry_tags[which];
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
call_fallback(int which, PyObject *const *args)
{
    FastMethod *fm = entries[which];
    if (fm == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "fastpath entry not created");
        return NULL;
    }
    return PyObject_Vectorcall(fm->fallback, args, entry_nargs[which], NULL);
}

static inline PyObject *
fallback1(int which, PyObject *a)
{
    PyObject *args[1] = {a};
    return call_fallback(which, args);
}

static inline PyObject *
fallback2(int which, PyObject *a, PyObject *b)
{
    PyObject *args[2] = {a, b};
    return call_fallback(which, args);
}

/* ``self.<name>(a, b)`` with a and b optional (NULL): new reference. */
static inline PyObject *
call_method(PyObject *name, PyObject *self, PyObject *a, PyObject *b)
{
    PyObject *args[4] = {NULL, self, a, b};
    size_t n = 1 + (a != NULL) + (a != NULL && b != NULL);
    return PyObject_VectorcallMethod(name, args + 1,
                                     n | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
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
    return fallback2(ENTRY_ENQUEUE, port, pkt);
}

/* -- Switch.receive --------------------------------------------------------- */

static inline PyObject *
port_receive(PyObject *port, PyObject *pkt)
{
    if (Py_IS_TYPE(port, PortType)
            && attr_is(PortType, s_receive, ENTRY_ENQUEUE))
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
    return fallback2(ENTRY_SWITCH, sw, pkt);
}

/* -- Link._drain ------------------------------------------------------------- */

static inline PyObject *
sink_receive(PyObject *sink, PyObject *pkt)
{
    if (Py_IS_TYPE(sink, SwitchType)
            && attr_is(SwitchType, s_receive, ENTRY_SWITCH))
        return switch_receive(sink, pkt);
    if (Py_IS_TYPE(sink, HostType)
            && attr_is(HostType, s_receive, ENTRY_HOST))
        return host_receive(sink, pkt);
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
    return fallback1(ENTRY_DRAIN, link);
}

/* -- transport: shared helpers -------------------------------------------- */

/* Values the reference mixes with floats stay below 2**52, where the
 * int -> double conversion is exact. */
#define EXACT_LIMIT (1LL << 52)

static inline int
slot_float(PyObject *o, Py_ssize_t off, double *out)
{
    PyObject *v = SLOT(o, off);
    if (v == NULL || !PyFloat_CheckExact(v))
        return 0;
    *out = PyFloat_AS_DOUBLE(v);
    return 1;
}

static inline int
slot_set_f64(PyObject *o, Py_ssize_t off, double v)
{
    PyObject *n = PyFloat_FromDouble(v);
    if (n == NULL)
        return -1;
    slot_steal(o, off, n);
    return 0;
}

static inline int
is_bool(PyObject *v)
{
    return v == Py_True || v == Py_False;
}

/* ``sim`` when it is exactly a Simulator with telemetry off, else NULL. */
static inline PyObject *
plain_sim(PyObject *sim)
{
    if (sim != NULL && Py_IS_TYPE(sim, SimType)
            && SLOT(sim, S.obs) == Py_None)
        return sim;
    return NULL;
}

/* An exact Sender on a plain simulator with every telemetry handle off. */
static inline int
plain_sender(PyObject *s)
{
    return Py_IS_TYPE(s, SenderType) && plain_sim(SLOT(s, D.sim)) != NULL
        && SLOT(s, D.obs) == Py_None && SLOT(s, D.events) == Py_None
        && SLOT(s, D.spans) == Py_None && SLOT(s, D.counters) == Py_None;
}

/* The sender's packetization: total_data_pkts, size_bytes, mss. */
static inline int
sender_sizes(PyObject *s, long long *total, long long *size, long long *mss)
{
    return slot_i64(s, D.total_data_pkts, total)
        && slot_i64(s, D.size_bytes, size) && slot_i64(s, D.mss, mss)
        && *mss > 0 && *mss < (1LL << 31) && *size >= 0
        && *size < EXACT_LIMIT && *total >= 0 && *total < EXACT_LIMIT;
}

/* Sender.payload_of, for the guarded sizes above. */
static inline long long
payload_of(long long seq, long long total, long long size, long long mss)
{
    if (seq >= total)
        return mss;
    if (seq == total - 1) {
        long long rem = size - seq * mss;
        return rem > 0 ? rem : mss;
    }
    return mss;
}

/* pacing_rate_gbps: 0 when off (None or 0.0), 1 with a positive rate in
 * *gbps, -1 for anything else (the reference decides). */
static inline int
pace_rate(PyObject *s, double *gbps)
{
    PyObject *v = SLOT(s, D.pacing_rate_gbps);
    if (v == Py_None)
        return 0;
    if (v == NULL || !PyFloat_CheckExact(v))
        return -1;
    *gbps = PyFloat_AS_DOUBLE(v);
    if (*gbps == 0.0)
        return 0;
    return *gbps > 0.0 ? 1 : -1;
}

/* Packet(kind, flow_id, src, dst, seq, size, sport, dport, payload):
 * every slot set as Packet.__init__ sets it. */
static PyObject *
new_packet(long long kind, PyObject *flow_id, PyObject *src, PyObject *dst,
           PyObject *seq, long long size, PyObject *sport, PyObject *dport,
           PyObject *payload)
{
    PyObject *p, *kind_o, *size_o;
    kind_o = PyLong_FromLongLong(kind);
    size_o = PyLong_FromLongLong(size);
    if (kind_o == NULL || size_o == NULL) {
        Py_XDECREF(kind_o);
        Py_XDECREF(size_o);
        return NULL;
    }
    p = PacketType->tp_alloc(PacketType, 0);
    if (p == NULL) {
        Py_DECREF(kind_o);
        Py_DECREF(size_o);
        return NULL;
    }
    slot_steal(p, K.kind, kind_o);
    slot_set(p, K.flow_id, flow_id);
    slot_set(p, K.src, src);
    slot_set(p, K.dst, dst);
    slot_set(p, K.sport, sport);
    slot_set(p, K.dport, dport);
    slot_set(p, K.seq, seq);
    slot_steal(p, K.size, size_o);
    slot_set(p, K.payload, payload);
    slot_set(p, K.ecn, Py_False);
    slot_set(p, K.sent_ps, int_zero);
    slot_set(p, K.echo_sent_ps, int_zero);
    slot_set(p, K.ecn_echo, Py_False);
    slot_set(p, K.block_id, Py_None);
    slot_set(p, K.block_pos, int_zero);
    slot_set(p, K.nack_block, Py_None);
    slot_set(p, K.retx, int_zero);
    slot_set(p, K.hops, int_zero);
    slot_set(p, K.int_util, float_zero);
    return p;
}

/* ``sim.at(t, fn)`` for t >= now: a new EventHandle, pushed with the next
 * tie-break seq exactly as Simulator.at does. New reference. */
static PyObject *
sim_at(PyObject *sim, PyObject *t, PyObject *fn)
{
    PyObject *heap = SLOT(sim, S.heap), *h, *seq_o, *entry;
    long long seq;
    int rc;
    if (heap == NULL || !PyList_CheckExact(heap)
            || !slot_i64(sim, S.seq, &seq)) {
        PyErr_SetString(PyExc_TypeError, "malformed Simulator");
        return NULL;
    }
    h = HandleType->tp_alloc(HandleType, 0);
    if (h == NULL)
        return NULL;
    slot_set(h, H.time, t);
    slot_set(h, H.fn, fn);
    slot_set(h, H.args, empty_tuple);
    slot_set(h, H.cancelled, Py_False);
    slot_set(h, H.fired, Py_False);
    slot_set(h, H.sim, sim);
    seq_o = PyLong_FromLongLong(seq + 1);
    if (seq_o == NULL) {
        Py_DECREF(h);
        return NULL;
    }
    slot_set(sim, S.seq, seq_o);
    entry = PyTuple_Pack(3, t, seq_o, h);
    Py_DECREF(seq_o);
    if (entry == NULL) {
        Py_DECREF(h);
        return NULL;
    }
    Py_INCREF(heap);
    rc = heap_push(heap, entry);
    Py_DECREF(heap);
    Py_DECREF(entry);
    if (rc) {
        Py_DECREF(h);
        return NULL;
    }
    return h;
}

/* ``host.send(pkt)``: an exact Host with a cached uplink offers the packet
 * to the port directly (Host.send); anything else goes through Python. */
static PyObject *
host_send(PyObject *host, PyObject *pkt)
{
    if (Py_IS_TYPE(host, HostType)) {
        PyObject *up = SLOT(host, O.uplink);
        if (up != NULL && up != Py_None)
            return port_receive(up, pkt);
    }
    return call_method(s_send, host, pkt, NULL);
}

/* Drop a call's result, keeping its error. */
static inline int
done_with(PyObject *r)
{
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* -- Host.receive --------------------------------------------------------- */

static PyObject *
host_receive(PyObject *host, PyObject *pkt)
{
    PyObject *eps, *ep, *flow, *r;
    long long kind;

    if (!Py_IS_TYPE(host, HostType) || !Py_IS_TYPE(pkt, PacketType)
            || SLOT(host, O.up) != Py_True
            || !slot_i64(pkt, K.kind, &kind) || kind > CNP_KIND
            || (eps = SLOT(host, O.endpoints)) == NULL
            || !PyDict_CheckExact(eps)
            || SLOT(host, O.rx_pkts) == NULL
            || SLOT(host, O.orphan_pkts) == NULL
            || (flow = SLOT(pkt, K.flow_id)) == NULL)
        goto fallback;
    if (slot_add(host, O.rx_pkts, 1))
        return NULL;
    ep = PyDict_GetItemWithError(eps, flow);
    if (ep == NULL) {
        if (PyErr_Occurred() || slot_add(host, O.orphan_pkts, 1))
            return NULL;
        Py_RETURN_NONE;
    }
    Py_INCREF(ep);
    if (Py_IS_TYPE(ep, SenderType)
            && attr_is(SenderType, s_on_packet, ENTRY_SENDER))
        r = sender_on_packet(ep, pkt);
    else if (Py_IS_TYPE(ep, ReceiverType)
             && attr_is(ReceiverType, s_on_packet, ENTRY_RECEIVER))
        r = receiver_on_packet(ep, pkt);
    else
        r = call_method(s_on_packet, ep, pkt, NULL);
    Py_DECREF(ep);
    if (done_with(r))
        return NULL;
    Py_RETURN_NONE;

fallback:
    return fallback2(ENTRY_HOST, host, pkt);
}

/* -- Receiver.on_packet --------------------------------------------------- */

/* make_ack(d, now): the ACK for DATA packet ``d``. */
static PyObject *
make_ack(PyObject *d, PyObject *now_o)
{
    PyObject *ack = new_packet(ACK_KIND, SLOT(d, K.flow_id), SLOT(d, K.dst),
                               SLOT(d, K.src), SLOT(d, K.seq), ack_size,
                               SLOT(d, K.dport), SLOT(d, K.sport),
                               SLOT(d, K.payload));
    if (ack == NULL)
        return NULL;
    slot_set(ack, K.echo_sent_ps, SLOT(d, K.sent_ps));
    slot_set(ack, K.ecn_echo, SLOT(d, K.ecn));
    slot_set(ack, K.int_util, SLOT(d, K.int_util));
    slot_set(ack, K.block_id, SLOT(d, K.block_id));
    slot_set(ack, K.block_pos, SLOT(d, K.block_pos));
    slot_set(ack, K.sent_ps, now_o);
    return ack;
}

/* Every field make_ack reads is set. */
static inline int
ackable(PyObject *d)
{
    return SLOT(d, K.flow_id) && SLOT(d, K.dst) && SLOT(d, K.src)
        && SLOT(d, K.seq) && SLOT(d, K.dport) && SLOT(d, K.sport)
        && SLOT(d, K.payload) && SLOT(d, K.sent_ps) && SLOT(d, K.ecn)
        && SLOT(d, K.int_util) && SLOT(d, K.block_id)
        && SLOT(d, K.block_pos);
}

static PyObject *
receiver_on_packet(PyObject *rcv, PyObject *pkt)
{
    PyObject *sim, *host, *idle, *now_o, *ack, *r;
    long long kind;

    if (!Py_IS_TYPE(rcv, ReceiverType) || !Py_IS_TYPE(pkt, PacketType)
            || !slot_i64(pkt, K.kind, &kind))
        goto fallback;
    if (kind != DATA_KIND)
        Py_RETURN_NONE;
    sim = plain_sim(SLOT(rcv, R.sim));
    idle = SLOT(rcv, R.idle_timeout_ps);
    host = SLOT(rcv, R.host);
    /* The first DATA packet arms the idle timer: reference path. */
    if (sim == NULL || SLOT(rcv, R.spans) != Py_None || idle == NULL
            || SLOT(rcv, R.idle_handle) == NULL
            || (idle != Py_None && SLOT(rcv, R.idle_handle) == Py_None)
            || SLOT(rcv, R.rx_data_pkts) == NULL || host == NULL
            || (now_o = SLOT(sim, S.now)) == NULL || !ackable(pkt))
        goto fallback;
    if (slot_add(rcv, R.rx_data_pkts, 1))
        return NULL;
    slot_set(rcv, R.last_rx_ps, now_o);
    ack = make_ack(pkt, now_o);
    if (ack == NULL)
        return NULL;
    Py_INCREF(host);
    r = host_send(host, ack);
    Py_DECREF(host);
    Py_DECREF(ack);
    if (done_with(r))
        return NULL;
    Py_RETURN_NONE;

fallback:
    return fallback2(ENTRY_RECEIVER, rcv, pkt);
}

/* -- Sender._maybe_send / _emit / _pace_wakeup ---------------------------- */

static PyObject *
sender_emit(PyObject *s, PyObject *seq_o)
{
    PyObject *sim, *now_o, *outstanding, *src, *dst, *path, *stats,
        *entropies = NULL, *payload_o, *pkt, *sport, *r;
    long long seq, now, total, size, mss, flow, inflight, next_pace = 0,
        plen, idx = 0, n = 0;
    double pace = 0.0;
    int c, paced;

    if (!plain_sender(s) || !as_i64(seq_o, &seq))
        goto fallback;
    sim = SLOT(s, D.sim);
    now_o = SLOT(sim, S.now);
    outstanding = SLOT(s, D.outstanding);
    src = SLOT(s, D.src);
    dst = SLOT(s, D.dst);
    path = SLOT(s, D.path);
    stats = SLOT(s, D.stats);
    if (now_o == NULL || !as_i64(now_o, &now)
            || outstanding == NULL || !PyDict_CheckExact(outstanding)
            || src == NULL || !Py_IS_TYPE(src, HostType)
            || SLOT(src, O.node_id) == NULL
            || dst == NULL || !Py_IS_TYPE(dst, HostType)
            || SLOT(dst, O.node_id) == NULL
            || stats == NULL || !Py_IS_TYPE(stats, StatsType)
            || SLOT(stats, T.first_send_ps) == NULL
            || SLOT(stats, T.data_pkts_sent) == NULL
            || SLOT(stats, T.parity_pkts_sent) == NULL
            || !sender_sizes(s, &total, &size, &mss)
            || !slot_i64(s, D.flow_id, &flow)
            || !slot_i64(s, D.inflight_bytes, &inflight)
            || (paced = pace_rate(s, &pace)) < 0
            || (paced && !slot_i64(s, D.next_pace_ps, &next_pace))
            || path == NULL)
        goto fallback;
    if (Py_IS_TYPE(path, UnoLBType)) {
        entropies = SLOT(path, B.entropies);
        if (entropies == NULL || !PyList_CheckExact(entropies)
                || !slot_i64(path, B.index, &idx)
                || !slot_i64(path, B.n_subflows, &n) || n <= 0
                || idx < 0 || idx >= PyList_GET_SIZE(entropies))
            goto fallback;
    }
    else if (!Py_IS_TYPE(path, FixedType) || SLOT(path, F.value) == NULL)
        goto fallback;
    c = PyDict_Contains(outstanding, seq_o);
    if (c < 0)
        return NULL;
    if (c)
        goto fallback;  /* a retransmission */

    plen = payload_of(seq, total, size, mss);
    payload_o = PyLong_FromLongLong(plen);
    if (payload_o == NULL)
        return NULL;
    pkt = new_packet(DATA_KIND, SLOT(s, D.flow_id), SLOT(src, O.node_id),
                     SLOT(dst, O.node_id), seq_o, plen + header_bytes,
                     int_zero, int_zero, payload_o);
    Py_DECREF(payload_o);
    if (pkt == NULL)
        return NULL;
    slot_set(pkt, K.sent_ps, now_o);
    /* Sender._decorate is a no-op; UnoLB.entropy of a fresh packet is
     * plain round robin. */
    if (entropies != NULL) {
        sport = PyList_GET_ITEM(entropies, idx);
        Py_INCREF(sport);
        if (slot_set_i64(path, B.index, (idx + 1) % n))
            goto error_sport;
    }
    else {
        sport = SLOT(path, F.value);
        Py_INCREF(sport);
    }
    slot_steal(pkt, K.sport, sport);
    if (slot_set_i64(pkt, K.dport, flow & 0xFFFF)
            || slot_set_i64(s, D.inflight_bytes, inflight + plen)
            || PyDict_SetItem(outstanding, seq_o, pkt))
        goto error;
    if (SLOT(stats, T.first_send_ps) == Py_None)
        slot_set(stats, T.first_send_ps, now_o);
    if (slot_add(stats, seq >= total ? T.parity_pkts_sent
                                     : T.data_pkts_sent, 1))
        goto error;
    if (paced) {
        /* ser_time_ps(pkt.size, pacing_rate_gbps) */
        long long gap = (long long)py_round(
            (double)((plen + header_bytes) * 8000) / pace);
        if (gap < 1)
            gap = 1;
        if (slot_set_i64(s, D.next_pace_ps,
                         (next_pace > now ? next_pace : now) + gap))
            goto error;
    }
    Py_INCREF(src);
    r = host_send(src, pkt);
    Py_DECREF(src);
    Py_DECREF(pkt);
    if (done_with(r))
        return NULL;
    Py_RETURN_NONE;

error_sport:
    Py_DECREF(sport);
error:
    Py_DECREF(pkt);
    return NULL;

fallback:
    return fallback2(ENTRY_EMIT, s, seq_o);
}

static PyObject *
sender_maybe_send(PyObject *s)
{
    PyObject *sim, *retx, *acked, *seq_o, *r;
    long long next, total, size, mss, inflight, now, next_pace, plen;
    double cwnd, pace;
    int c, paced;

    /* Each pass re-checks its guards; handing the rest of the loop to the
     * reference between two sends is the same as continuing it. */
    for (;;) {
        if (!plain_sender(s))
            goto fallback;
        sim = SLOT(s, D.sim);
        retx = SLOT(s, D.retx_queue);
        acked = SLOT(s, D.acked_seqs);
        if (retx == NULL || !Py_IS_TYPE(retx, DequeType)
                || Py_SIZE(retx) != 0
                || acked == NULL || !PySet_CheckExact(acked)
                || !slot_i64(s, D.next_seq, &next)
                || !sender_sizes(s, &total, &size, &mss)
                || !slot_i64(s, D.inflight_bytes, &inflight)
                || inflight <= -EXACT_LIMIT || inflight >= EXACT_LIMIT
                || !slot_float(s, D.cwnd, &cwnd)
                || (paced = pace_rate(s, &pace)) < 0
                || !slot_i64(sim, S.now, &now)
                || !slot_i64(s, D.next_pace_ps, &next_pace)
                || SLOT(s, D.pace_handle) == NULL)
            goto fallback;
        if (next >= total)
            Py_RETURN_NONE;  /* no parity on a plain Sender */
        seq_o = PyLong_FromLongLong(next);
        if (seq_o == NULL)
            return NULL;
        c = PySet_Contains(acked, seq_o);
        if (c < 0)
            goto error;
        if (c) {
            /* Retired while queued: never emit it. */
            Py_DECREF(seq_o);
            if (slot_set_i64(s, D.next_seq, next + 1))
                return NULL;
            continue;
        }
        plen = payload_of(next, total, size, mss);
        if (!((double)(inflight + plen) <= cwnd)) {
            Py_DECREF(seq_o);
            Py_RETURN_NONE;  /* an ACK will retrigger us */
        }
        if (paced && next_pace > now) {
            Py_DECREF(seq_o);
            if (SLOT(s, D.pace_handle) == Py_None) {
                PyObject *wake = PyObject_GetAttr(s, s__pace_wakeup), *h;
                if (wake == NULL)
                    return NULL;
                h = sim_at(sim, SLOT(s, D.next_pace_ps), wake);
                Py_DECREF(wake);
                if (h == NULL)
                    return NULL;
                slot_steal(s, D.pace_handle, h);
            }
            Py_RETURN_NONE;
        }
        if (slot_set_i64(s, D.next_seq, next + 1))
            goto error;
        if (attr_is(SenderType, s__emit, ENTRY_EMIT))
            r = sender_emit(s, seq_o);
        else
            r = call_method(s__emit, s, seq_o, NULL);
        Py_DECREF(seq_o);
        if (done_with(r))
            return NULL;
    }

error:
    Py_DECREF(seq_o);
    return NULL;

fallback:
    return fallback1(ENTRY_MAYBE_SEND, s);
}

/* ``self._maybe_send()`` through the entry while it is installed. */
static inline PyObject *
maybe_send(PyObject *s)
{
    if (attr_is(SenderType, s__maybe_send, ENTRY_MAYBE_SEND))
        return sender_maybe_send(s);
    return call_method(s__maybe_send, s, NULL, NULL);
}

static PyObject *
sender_pace_wakeup(PyObject *s)
{
    PyObject *r;
    if (!Py_IS_TYPE(s, SenderType))
        return fallback1(ENTRY_PACE, s);
    slot_set(s, D.pace_handle, Py_None);
    r = maybe_send(s);
    if (done_with(r))
        return NULL;
    Py_RETURN_NONE;
}

/* -- UnoCC.on_ack --------------------------------------------------------- */

/* What the inlined UnoCC.on_ack reads from the controller, the sender
 * and the ACK. */
typedef struct {
    PyObject *tracker;
    double alpha, max_cwnd, cwnd;
    long long period, t_epoch, total, marked, max_rel, closed, payload,
        echo, base_rtt;
    int slow_start, has_epoch, use_pacing;
} CCState;

/* Guards for the inlined UnoCC.on_ack: 1 when it applies, 0 when the
 * reference must run (e.g. the first ACK, which starts Quick Adapt), -1
 * on error. Reads only. */
static int
unocc_ready(PyObject *cc, CCState *st)
{
    PyObject *tr, *te, *cfg, *use;
    if (!Py_IS_TYPE(cc, UnoCCType) || SLOT(cc, C.qa_started) != Py_True
            || !is_bool(SLOT(cc, C.slow_start))
            || !slot_float(cc, C.alpha_bytes, &st->alpha)
            || !slot_float(cc, C.max_cwnd, &st->max_cwnd)
            || (tr = SLOT(cc, C.tracker)) == NULL
            || !Py_IS_TYPE(tr, TrackerType)
            || (te = SLOT(tr, E.t_epoch)) == NULL
            || (te != Py_None && !as_i64(te, &st->t_epoch))
            || !slot_i64(tr, E.period_ps, &st->period)
            || !slot_i64(tr, E.total, &st->total)
            || !slot_i64(tr, E.marked, &st->marked)
            || !slot_i64(tr, E.max_rel_delay, &st->max_rel)
            || !slot_i64(tr, E.epochs_closed, &st->closed)
            || (cfg = SLOT(cc, C.config)) == NULL)
        return 0;
    use = PyObject_GetAttr(cfg, s_use_pacing);
    if (use == NULL)
        return -1;
    Py_DECREF(use);
    if (!is_bool(use))
        return 0;
    st->tracker = tr;
    st->slow_start = SLOT(cc, C.slow_start) == Py_True;
    st->has_epoch = te != Py_None;
    st->use_pacing = use == Py_True;
    return 1;
}

/* Sender and ACK fields UnoCC.on_ack reads, checked before any write. */
static inline int
unocc_sender_ready(PyObject *s, PyObject *pkt, CCState *st)
{
    PyObject *m = SLOT(s, D.min_rtt_ps);
    long long v;
    double f;
    return slot_float(s, D.cwnd, &st->cwnd) && slot_float(s, D.srtt_ps, &f)
        && slot_float(s, D.line_gbps, &f)
        && slot_i64(s, D.base_rtt_ps, &st->base_rtt)
        && m != NULL && (m == Py_None || as_i64(m, &v))
        && slot_i64(pkt, K.payload, &st->payload)
        && st->payload > -EXACT_LIMIT && st->payload < EXACT_LIMIT
        && slot_i64(pkt, K.echo_sent_ps, &st->echo);
}

/* The sender's cwnd, which the reference keeps a float. */
static inline int
cwnd_of(PyObject *s, double *cwnd)
{
    if (slot_float(s, D.cwnd, cwnd))
        return 0;
    PyErr_SetString(PyExc_TypeError, "Sender.cwnd must be a float");
    return -1;
}

/* pacing_rate_gbps = min(line_gbps, rate_estimate_gbps), as UnoCC sets
 * it (Sender.rate_estimate_gbps inlined). */
static int
set_pacing(PyObject *s)
{
    double cwnd, srtt, line, est;
    if (cwnd_of(s, &cwnd))
        return -1;
    if (!slot_float(s, D.srtt_ps, &srtt)
            || !slot_float(s, D.line_gbps, &line)) {
        PyErr_SetString(PyExc_TypeError,
                        "Sender.srtt_ps and line_gbps must be floats");
        return -1;
    }
    if (srtt <= 0)
        est = line;
    else {
        double r = cwnd * 8000.0 / srtt, l4 = line * 4;
        est = r < l4 ? r : l4;
    }
    return slot_set_f64(s, D.pacing_rate_gbps, est < line ? est : line);
}

/* UnoCC.on_ack(sender, pkt, rtt, ecn) after unocc_sender_ready() and
 * unocc_ready() passed; cwnd is unchanged since, min_rtt_ps may not be. */
static int
unocc_apply(PyObject *cc, CCState *st, PyObject *s, long long rtt, int ecn,
            PyObject *now_o)
{
    PyObject *m = SLOT(s, D.min_rtt_ps), *tr = st->tracker;
    long long payload = st->payload, echo = st->echo, now, base, rel;
    double cwnd = st->cwnd;
    int rc = 0;
    if (st->slow_start) {
        if (!ecn) {
            cwnd += (double)payload;  /* double per RTT */
            if (cwnd >= st->max_cwnd) {
                cwnd = st->max_cwnd;
                slot_set(cc, C.slow_start, Py_False);
            }
        }
    }
    else if (!ecn)
        cwnd += st->alpha * (double)payload / cwnd;
    if (cwnd > st->max_cwnd)
        cwnd = st->max_cwnd;
    if (slot_set_f64(s, D.cwnd, cwnd))
        return -1;
    /* rel_delay = max(0, rtt - (min_rtt_ps or base_rtt_ps)) */
    if (m == Py_None || !as_i64(m, &base) || base == 0)
        base = st->base_rtt;
    rel = rtt - base;
    if (!(rel > 0))
        rel = 0;

    /* EpochTracker.on_ack(now, pkt.echo_sent_ps, ecn, rel_delay) */
    Py_INCREF(tr);
    if (!st->has_epoch) {
        if (!as_i64(now_o, &now)) {
            PyErr_SetString(PyExc_TypeError, "Simulator.now must be an int");
            goto error;
        }
        st->t_epoch = now;
        slot_set(tr, E.t_epoch, now_o);
    }
    st->total += 1;
    if (ecn)
        st->marked += 1;
    if (rel > st->max_rel)
        st->max_rel = rel;
    if (echo < st->t_epoch) {
        if (slot_set_i64(tr, E.total, st->total)
                || slot_set_i64(tr, E.marked, st->marked)
                || slot_set_i64(tr, E.max_rel_delay, st->max_rel))
            goto error;
    }
    else {
        PyObject *args[3], *summary, *r;
        long long next = st->t_epoch + st->period;
        args[0] = PyLong_FromLongLong(st->total);
        args[1] = PyLong_FromLongLong(st->marked);
        args[2] = PyLong_FromLongLong(st->max_rel);
        summary = (args[0] && args[1] && args[2])
            ? PyObject_Vectorcall(SummaryType, args, 3, NULL) : NULL;
        Py_XDECREF(args[0]);
        Py_XDECREF(args[1]);
        Py_XDECREF(args[2]);
        if (summary == NULL)
            goto error;
        slot_set(tr, E.total, int_zero);
        slot_set(tr, E.marked, int_zero);
        slot_set(tr, E.max_rel_delay, int_zero);
        if (slot_set_i64(tr, E.t_epoch, echo > next ? echo : next)
                || slot_set_i64(tr, E.epochs_closed, st->closed + 1)) {
            Py_DECREF(summary);
            goto error;
        }
        r = call_method(s__on_epoch, cc, s, summary);
        Py_DECREF(summary);
        if (done_with(r))
            goto error;
    }
    Py_DECREF(tr);
    if (st->use_pacing)
        rc = set_pacing(s);
    return rc;

error:
    Py_DECREF(tr);
    return -1;
}

static PyObject *
unocc_on_ack(PyObject *const *args)
{
    PyObject *cc = args[0], *s = args[1], *pkt = args[2], *ecn_o = args[4],
        *now_o;
    long long rtt;
    CCState st;
    int ready;

    if (!plain_sender(s) || !Py_IS_TYPE(pkt, PacketType)
            || !as_i64(args[3], &rtt) || !is_bool(ecn_o)
            || !unocc_sender_ready(s, pkt, &st)
            || (now_o = SLOT(SLOT(s, D.sim), S.now)) == NULL)
        goto fallback;
    ready = unocc_ready(cc, &st);
    if (ready < 0)
        return NULL;
    if (!ready)
        goto fallback;
    Py_INCREF(now_o);
    ready = unocc_apply(cc, &st, s, rtt, ecn_o == Py_True, now_o);
    Py_DECREF(now_o);
    if (ready)
        return NULL;
    Py_RETURN_NONE;

fallback:
    return call_fallback(ENTRY_UNOCC, args);
}

/* -- Sender.on_packet / _on_ack ------------------------------------------- */

static PyObject *
sender_on_ack(PyObject *s, PyObject *pkt)
{
    PyObject *sim, *seq_o, *acked, *outstanding, *lost, *stats, *sent,
        *now_o, *cc, *path, *ecn_o, *lb_acks = NULL, *m, *r;
    long long seq, now, echo, payload, inflight, min_rtt = 0, rtt, mss;
    double srtt, rttvar, cwnd;
    int c, has_min, ready;
    CCState st;

    if (!plain_sender(s) || !Py_IS_TYPE(pkt, PacketType))
        goto fallback;
    sim = SLOT(s, D.sim);
    seq_o = SLOT(pkt, K.seq);
    if (seq_o == NULL || !as_i64(seq_o, &seq) || seq < 0)
        goto fallback;  /* control ACK */
    acked = SLOT(s, D.acked_seqs);
    outstanding = SLOT(s, D.outstanding);
    lost = SLOT(s, D.lost_seqs);
    stats = SLOT(s, D.stats);
    now_o = SLOT(sim, S.now);
    cc = SLOT(s, D.cc);
    path = SLOT(s, D.path);
    ecn_o = SLOT(pkt, K.ecn_echo);
    m = SLOT(s, D.min_rtt_ps);
    if (acked == NULL || !PySet_CheckExact(acked)
            || outstanding == NULL || !PyDict_CheckExact(outstanding)
            || lost == NULL || !PySet_CheckExact(lost)
            || stats == NULL || !Py_IS_TYPE(stats, StatsType)
            || SLOT(stats, T.bytes_acked) == NULL
            || now_o == NULL || !as_i64(now_o, &now)
            || !slot_i64(pkt, K.echo_sent_ps, &echo)
            || ecn_o == NULL || !is_bool(ecn_o)
            || !slot_i64(s, D.inflight_bytes, &inflight)
            || m == NULL || (m != Py_None && !as_i64(m, &min_rtt))
            || !slot_float(s, D.srtt_ps, &srtt)
            || !slot_float(s, D.rttvar_ps, &rttvar)
            || !slot_i64(s, D.mss, &mss) || mss >= EXACT_LIMIT
            || SLOT(s, D.total_data_pkts) == NULL
            || cc == NULL || path == NULL
            || !attr_is(UnoCCType, s_on_ack, ENTRY_UNOCC)
            || !unocc_sender_ready(s, pkt, &st))
        goto fallback;
    has_min = m != Py_None;
    rtt = now - echo;
    if (rtt <= -EXACT_LIMIT || rtt >= EXACT_LIMIT)
        goto fallback;
    if (Py_IS_TYPE(path, UnoLBType)) {
        lb_acks = SLOT(path, B.last_ack_ps);
        if (lb_acks == NULL || !PyDict_CheckExact(lb_acks)
                || SLOT(pkt, K.dport) == NULL)
            goto fallback;
    }
    else if (!Py_IS_TYPE(path, FixedType))
        goto fallback;
    c = PySet_Contains(acked, seq_o);
    if (c < 0)
        return NULL;
    if (c)
        goto fallback;  /* duplicate */
    sent = PyDict_GetItemWithError(outstanding, seq_o);
    if (sent == NULL) {
        if (PyErr_Occurred())
            return NULL;
        goto fallback;  /* stale */
    }
    if (!Py_IS_TYPE(sent, PacketType) || !slot_i64(sent, K.payload, &payload))
        goto fallback;
    ready = unocc_ready(cc, &st);
    if (ready < 0)
        return NULL;
    if (!ready)
        goto fallback;  /* e.g. the first ACK starts Quick Adapt */

    /* Commit. */
    Py_INCREF(seq_o);
    if (PyDict_DelItem(outstanding, seq_o) || PySet_Add(acked, seq_o)) {
        Py_DECREF(seq_o);
        return NULL;
    }
    slot_set(s, D.rto_backoff, int_one);  /* ACK progress ends backoff */
    slot_set(s, D.consecutive_timeouts, int_zero);
    c = PySet_Contains(lost, seq_o);
    if (c > 0)
        c = PySet_Discard(lost, seq_o) < 0 ? -1 : 1;
    Py_DECREF(seq_o);
    if (c < 0 || (c == 0 && slot_set_i64(s, D.inflight_bytes,
                                         inflight - payload))
            || slot_add(stats, T.bytes_acked, payload))
        return NULL;
    if (rtt > 0) {
        if (!has_min || rtt < min_rtt) {
            if (slot_set_i64(s, D.min_rtt_ps, rtt))
                return NULL;
        }
        rttvar += 0.25 * (fabs((double)rtt - srtt) - rttvar);
        srtt += 0.125 * ((double)rtt - srtt);
        if (slot_set_f64(s, D.rttvar_ps, rttvar)
                || slot_set_f64(s, D.srtt_ps, srtt))
            return NULL;
    }
    /* Hold what is used after the Python callouts (_on_epoch). */
    Py_INCREF(now_o);
    Py_INCREF(acked);
    Py_INCREF(cc);
    Py_INCREF(path);
    Py_XINCREF(lb_acks);
    if (unocc_apply(cc, &st, s, rtt, ecn_o == Py_True, now_o))
        goto error;
    /* cwnd = max(cwnd, float(mss)) */
    if (cwnd_of(s, &cwnd)
            || ((double)mss > cwnd && slot_set_f64(s, D.cwnd, (double)mss)))
        goto error;
    /* UnoLB.on_ack: the ACK's dport carries the data packet's subflow.
     * FixedEntropy's on_ack is a no-op; so is Sender._after_ack. */
    if (lb_acks != NULL
            && PyDict_SetItem(lb_acks, SLOT(pkt, K.dport), now_o))
        goto error;
    {
        long long total;
        if (slot_i64(s, D.total_data_pkts, &total)
                && PySet_GET_SIZE(acked) < total)
            c = 0;  /* _check_done() cannot succeed yet */
        else {
            r = call_method(s__check_done, s, NULL, NULL);
            if (r == NULL)
                goto error;
            c = PyObject_IsTrue(r);
            Py_DECREF(r);
            if (c < 0)
                goto error;
        }
    }
    Py_DECREF(now_o);
    Py_DECREF(acked);
    Py_DECREF(cc);
    Py_DECREF(path);
    Py_XDECREF(lb_acks);
    if (c)
        Py_RETURN_NONE;
    r = maybe_send(s);
    if (done_with(r))
        return NULL;
    Py_RETURN_NONE;

error:
    Py_DECREF(now_o);
    Py_DECREF(acked);
    Py_DECREF(cc);
    Py_DECREF(path);
    Py_XDECREF(lb_acks);
    return NULL;

fallback:
    return fallback2(ENTRY_ON_ACK, s, pkt);
}

static PyObject *
sender_on_packet(PyObject *s, PyObject *pkt)
{
    PyObject *done, *aborted, *r;
    long long kind;

    if (!Py_IS_TYPE(s, SenderType) || !Py_IS_TYPE(pkt, PacketType)
            || !slot_i64(pkt, K.kind, &kind))
        goto fallback;
    done = SLOT(s, D.done);
    aborted = SLOT(s, D.aborted);
    if (done == NULL || !is_bool(done) || aborted == NULL || !is_bool(aborted))
        goto fallback;
    if (done == Py_True || aborted == Py_True)
        Py_RETURN_NONE;  /* terminal */
    if (kind != ACK_KIND)
        goto fallback;  /* NACK, CNP */
    if (attr_is(SenderType, s__on_ack, ENTRY_ON_ACK))
        r = sender_on_ack(s, pkt);
    else
        r = call_method(s__on_ack, s, pkt, NULL);
    if (done_with(r))
        return NULL;
    Py_RETURN_NONE;

fallback:
    return fallback2(ENTRY_SENDER, s, pkt);
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
    case ENTRY_SWITCH:
        return switch_receive(args[0], args[1]);
    case ENTRY_HOST:
        return host_receive(args[0], args[1]);
    case ENTRY_RECEIVER:
        return receiver_on_packet(args[0], args[1]);
    case ENTRY_SENDER:
        return sender_on_packet(args[0], args[1]);
    case ENTRY_ON_ACK:
        return sender_on_ack(args[0], args[1]);
    case ENTRY_MAYBE_SEND:
        return sender_maybe_send(args[0]);
    case ENTRY_EMIT:
        return sender_emit(args[0], args[1]);
    case ENTRY_PACE:
        return sender_pace_wakeup(args[0]);
    default:
        return unocc_on_ack(args);
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
    Py_ssize_t i, n = PyTuple_GET_SIZE(args);
    if (Py_IS_TYPE(fn, &PyMethod_Type)
            && Py_IS_TYPE(PyMethod_GET_FUNCTION(fn), &FastMethodType)) {
        FastMethod *fm = (FastMethod *)PyMethod_GET_FUNCTION(fn);
        if (n + 1 == entry_nargs[fm->which]) {
            PyObject *stack[MAX_NARGS];
            stack[0] = PyMethod_GET_SELF(fn);
            for (i = 0; i < n; i++)
                stack[i + 1] = PyTuple_GET_ITEM(args, i);
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
"     deque, Host, Sender, Receiver, SenderStats, UnoCC, EpochTracker,\n"
"     UnoLB, FixedEntropy, EpochSummary, switch_namespace, header_bytes,\n"
"     ack_size)\n\n"
"Resolve the classes' __slots__ member offsets and the deque primitives.\n"
"Raises if any class does not have the expected slotted layout.");

#define N_BOUND 17

static PyObject *
fp_bind(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *what[N_BOUND] = {
        "Simulator", "EventHandle", "Port", "Link", "Switch", "Packet",
        "PhantomQueue", "deque", "Host", "Sender", "Receiver",
        "SenderStats", "UnoCC", "EpochTracker", "UnoLB", "FixedEntropy",
        "EpochSummary"};
    PyTypeObject *types[N_BOUND];
    long long hdr, ack;
    int i;

    if (nargs != N_BOUND + 3 || !PyDict_Check(args[N_BOUND])
            || !as_i64(args[N_BOUND + 1], &hdr)
            || !as_i64(args[N_BOUND + 2], &ack)) {
        PyErr_SetString(PyExc_TypeError,
                        "bind() takes 17 classes, a dict and two ints");
        return NULL;
    }
    for (i = 0; i < N_BOUND; i++) {
        if (check_type(args[i], what[i]))
            return NULL;
        types[i] = (PyTypeObject *)args[i];
    }
    {
        OffsetSpec sim[] = {{&S.now, "now"}, {&S.heap, "_heap"},
                            {&S.seq, "_seq"}, {&S.n_executed, "_n_executed"},
                            {&S.n_cancelled, "_n_cancelled"},
                            {&S.obs, "obs"}, {NULL, NULL}};
        OffsetSpec handle[] = {{&H.time, "time"}, {&H.fn, "fn"},
                               {&H.args, "args"},
                               {&H.cancelled, "cancelled"},
                               {&H.fired, "fired"}, {&H.sim, "sim"},
                               {NULL, NULL}};
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
            {&K.kind, "kind"}, {&K.flow_id, "flow_id"}, {&K.src, "src"},
            {&K.dst, "dst"}, {&K.sport, "sport"}, {&K.dport, "dport"},
            {&K.seq, "seq"}, {&K.size, "size"}, {&K.payload, "payload"},
            {&K.ecn, "ecn"}, {&K.sent_ps, "sent_ps"},
            {&K.echo_sent_ps, "echo_sent_ps"}, {&K.ecn_echo, "ecn_echo"},
            {&K.block_id, "block_id"}, {&K.block_pos, "block_pos"},
            {&K.nack_block, "nack_block"}, {&K.retx, "retx"},
            {&K.hops, "hops"}, {&K.int_util, "int_util"}, {NULL, NULL}};
        OffsetSpec phantom[] = {
            {&Q.occupancy, "occupancy"}, {&Q.drain, "_drain_bytes_per_ps"},
            {&Q.last_ps, "_last_ps"}, {&Q.min_th, "min_th"},
            {&Q.max_th, "max_th"}, {&Q.rng, "_rng"}, {NULL, NULL}};
        OffsetSpec host[] = {
            {&O.node_id, "node_id"}, {&O.up, "up"},
            {&O.endpoints, "endpoints"}, {&O.rx_pkts, "rx_pkts"},
            {&O.orphan_pkts, "orphan_pkts"}, {&O.uplink, "_uplink"},
            {NULL, NULL}};
        OffsetSpec sender[] = {
            {&D.sim, "sim"}, {&D.flow_id, "flow_id"}, {&D.src, "src"},
            {&D.dst, "dst"}, {&D.size_bytes, "size_bytes"}, {&D.cc, "cc"},
            {&D.mss, "mss"}, {&D.base_rtt_ps, "base_rtt_ps"},
            {&D.line_gbps, "line_gbps"}, {&D.path, "path"},
            {&D.total_data_pkts, "total_data_pkts"},
            {&D.next_seq, "_next_seq"}, {&D.outstanding, "outstanding"},
            {&D.inflight_bytes, "inflight_bytes"},
            {&D.acked_seqs, "acked_seqs"}, {&D.retx_queue, "_retx_queue"},
            {&D.lost_seqs, "_lost_seqs"}, {&D.cwnd, "cwnd"},
            {&D.pacing_rate_gbps, "pacing_rate_gbps"},
            {&D.min_rtt_ps, "min_rtt_ps"}, {&D.srtt_ps, "srtt_ps"},
            {&D.rttvar_ps, "rttvar_ps"}, {&D.next_pace_ps, "_next_pace_ps"},
            {&D.pace_handle, "_pace_handle"},
            {&D.rto_backoff, "_rto_backoff"},
            {&D.consecutive_timeouts, "_consecutive_timeouts"},
            {&D.aborted, "_aborted"}, {&D.stats, "stats"},
            {&D.done, "_done"}, {&D.obs, "_obs"}, {&D.events, "_events"},
            {&D.spans, "_spans"}, {&D.counters, "_counters"}, {NULL, NULL}};
        OffsetSpec receiver[] = {
            {&R.sim, "sim"}, {&R.host, "host"}, {&R.spans, "_spans"},
            {&R.rx_data_pkts, "rx_data_pkts"},
            {&R.idle_timeout_ps, "idle_timeout_ps"},
            {&R.last_rx_ps, "_last_rx_ps"},
            {&R.idle_handle, "_idle_handle"}, {NULL, NULL}};
        OffsetSpec stats[] = {
            {&T.bytes_acked, "bytes_acked"},
            {&T.data_pkts_sent, "data_pkts_sent"},
            {&T.parity_pkts_sent, "parity_pkts_sent"},
            {&T.first_send_ps, "first_send_ps"}, {NULL, NULL}};
        OffsetSpec unocc[] = {
            {&C.config, "config"}, {&C.tracker, "_tracker"},
            {&C.alpha_bytes, "_alpha_bytes"},
            {&C.qa_started, "_qa_started"}, {&C.slow_start, "_slow_start"},
            {&C.max_cwnd, "_max_cwnd"}, {NULL, NULL}};
        OffsetSpec tracker[] = {
            {&E.period_ps, "period_ps"}, {&E.t_epoch, "t_epoch"},
            {&E.total, "_total"}, {&E.marked, "_marked"},
            {&E.max_rel_delay, "_max_rel_delay"},
            {&E.epochs_closed, "epochs_closed"}, {NULL, NULL}};
        OffsetSpec unolb[] = {
            {&B.entropies, "entropies"}, {&B.index, "_index"},
            {&B.last_ack_ps, "_last_ack_ps"},
            {&B.n_subflows, "n_subflows"}, {NULL, NULL}};
        OffsetSpec fixed[] = {{&F.value, "_value"}, {NULL, NULL}};
        if (resolve(types[0], sim) || resolve(types[1], handle)
                || resolve(types[2], port) || resolve(types[3], link)
                || resolve(types[4], switch_) || resolve(types[5], packet)
                || resolve(types[6], phantom) || resolve(types[8], host)
                || resolve(types[9], sender) || resolve(types[10], receiver)
                || resolve(types[11], stats) || resolve(types[12], unocc)
                || resolve(types[13], tracker) || resolve(types[14], unolb)
                || resolve(types[15], fixed))
            return NULL;
    }
    dq_append = method_impl(types[7], "append", METH_O);
    if (dq_append == NULL)
        return NULL;
    dq_popleft = method_impl(types[7], "popleft", METH_NOARGS);
    if (dq_popleft == NULL)
        return NULL;
    for (i = 0; i < N_BOUND; i++)
        Py_INCREF(types[i]);
    SimType = types[0];
    HandleType = types[1];
    PortType = types[2];
    LinkType = types[3];
    SwitchType = types[4];
    PacketType = types[5];
    PhantomType = types[6];
    DequeType = types[7];
    HostType = types[8];
    SenderType = types[9];
    ReceiverType = types[10];
    StatsType = types[11];
    UnoCCType = types[12];
    TrackerType = types[13];
    UnoLBType = types[14];
    FixedType = types[15];
    SummaryType = (PyObject *)types[16];
    header_bytes = hdr;
    ack_size = ack;
    Py_INCREF(args[N_BOUND]);
    Py_XSETREF(switch_globals, args[N_BOUND]);
    bound = 1;
    Py_RETURN_NONE;
}

PyDoc_STRVAR(entry_doc,
"entry(name, fallback) -> descriptor\n\n"
"The compiled entry ``name`` (enqueue, drain, switch_receive,\n"
"host_receive, receiver_on_packet, sender_on_packet, sender_on_ack,\n"
"maybe_send, emit, pace_wakeup or unocc_on_ack) as a\n"
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
    memset(entry_tags, 0, sizeof(entry_tags));
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
    .m_doc = "Compiled per-packet hot path (see repro.sim.fastpath).",
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
    s_on_packet = PyUnicode_InternFromString("on_packet");
    s__on_ack = PyUnicode_InternFromString("_on_ack");
    s__maybe_send = PyUnicode_InternFromString("_maybe_send");
    s__emit = PyUnicode_InternFromString("_emit");
    s_on_ack = PyUnicode_InternFromString("on_ack");
    s__pace_wakeup = PyUnicode_InternFromString("_pace_wakeup");
    s_send = PyUnicode_InternFromString("send");
    s__on_epoch = PyUnicode_InternFromString("_on_epoch");
    s__check_done = PyUnicode_InternFromString("_check_done");
    s_use_pacing = PyUnicode_InternFromString("use_pacing");
    int_zero = PyLong_FromLong(0);
    int_one = PyLong_FromLong(1);
    float_zero = PyFloat_FromDouble(0.0);
    empty_tuple = PyTuple_New(0);
    if (!s_receive || !s_random || !s_at_seq || !s__drain || !s_flow_hash
            || !s_on_packet || !s__on_ack || !s__maybe_send || !s__emit
            || !s_on_ack || !s__pace_wakeup || !s_send || !s__on_epoch
            || !s__check_done || !s_use_pacing
            || !int_zero || !int_one || !float_zero || !empty_tuple)
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
