/* Simulation kernel hot core: event heap, events, processes and the
 * dispatch loop, in C.
 *
 * A campaign is hundreds of thousands of iterations of the same cycle:
 * create an event, push it on the event queue, pop the minimum, run its
 * callbacks, resume a generator.  This module keeps that whole cycle on
 * the C side of the interpreter:
 *
 * EventHeap
 *   Binary heap of (when, priority, seq, event) entries with the three
 *   ordering keys stored *unboxed* (C double / long / long long) beside
 *   the event pointer — sift comparisons are machine compares instead of
 *   Python tuple comparisons.  The heap owns both the sequence counter
 *   (``push`` stamps the next seq itself; seq makes the key total, so pop
 *   order is bit-identical to heapq over equivalent tuples) and the
 *   simulation clock (``now`` advances to each popped entry's time, so
 *   the dispatch paths never box the clock).  ``timeout_at(when)`` pushes a
 *   Timeout at an absolute instant (the message path's one-event legs) and
 *   ``remove(obj)`` unschedules an entry without dispatching it (a
 *   disarmed deadline timer).
 *
 * Event, Process, Timeout, AnyOf, AllOf
 *   The event family as C structs, so a wake-up reads and writes fields
 *   instead of attributes.  ``Event`` holds engine, callbacks, value, ok
 *   and scheduled (plus a weakref slot) and has ``succeed`` / ``fail``;
 *   the resources' ``Request`` stays a Python subclass of it.
 *   ``Process`` extends it with generator, name, ``_target``,
 *   ``_interrupts`` and ``_defused``: its constructor pushes the boot
 *   Timeout (now, urgently, or after a ``delay``: a message handler boots
 *   at the end of its dispatch charge), and it is its own resume callback
 *   (``tp_call``) — a waiter list holds the process itself, with no bound
 *   method and no process -> method -> process reference.  ``Timeout`` is
 *   a born-scheduled event whose constructor sifts itself into the heap.
 *   All three keep ``callbacks`` unallocated until a waiter subscribes: a
 *   watcherless timeout or a process nobody waits on never allocates a
 *   waiter list (and a watcherless timeout stays invisible to the cyclic
 *   GC).  ``AnyOf`` and ``AllOf`` extend ``Event`` with their children:
 *   each is its own callback on every child it subscribed to, and takes
 *   that callback back once it settles.  Their type ``__name__``s are
 *   "Event", "Process", "Timeout", "AnyOf" and "AllOf", so determinism
 *   event logs match the pure-Python kernel's exactly.
 *
 * drain(heap, until, clamp, stopproc)
 *   The non-logging dispatch loop: pop, advance the clock, run callbacks.
 *   A callback that is a Process resumes in C (``c_resume``): interrupt
 *   check, generator send/throw, the finish (``c_finish``: settle in
 *   place, count a fan-out join down, or schedule), subscribe to the
 *   yielded event.  A condition or a deadline queue runs in C too.  Every
 *   branch mirrors the pure-Python ``Process.__call__`` / ``_finish`` line
 *   for line; the determinism suite pins the equivalence.
 *
 * Message, post, Leg, accept, Handler, request, DeadlineQueue
 *   The message path of repro.core.transport, from the post to the reply
 *   token: the send side, the arrival step and the handler process, a
 *   Process subtype that drives the application handler's generator and
 *   then runs the reply leg; an RPC attempt's post and the queue that
 *   expires its deadline.  transport.py binds them over its Python, their
 *   statement-for-statement mirror, and engine.py binds the conditions
 *   over its own.
 *
 * Built on first import by repro.sim.simcore; that module falls back to a
 * pure-Python implementation when no C toolchain is available, and the
 * kernel test suite runs against both.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Module state (set once by configure(); NULL-safe before that)       */
/* ------------------------------------------------------------------ */

static PyObject *g_simerror;      /* SimulationError class */
static PyObject *g_pending;       /* PENDING: a pending event's _value */

static PyObject *str__queue, *str_throw, *str___name__;

/* ------------------------------------------------------------------ */
/* EventHeap                                                          */
/* ------------------------------------------------------------------ */

typedef struct {
    double when;
    long prio;
    long long seq;
    PyObject *item; /* owned reference to the scheduled event object */
} Entry;

typedef struct {
    PyObject_HEAD
    Entry *arr;
    Py_ssize_t size;
    Py_ssize_t cap;
    long long count; /* total pushes ever == next seq to hand out */
    double now;      /* simulation clock: time of the last popped entry */
} Heap;

static PyTypeObject HeapType;    /* forward */
static PyTypeObject TimeoutType; /* forward */

static inline int
entry_lt(const Entry *a, const Entry *b)
{
    /* Same ordering as Python's tuple compare on (when, prio, seq):
     * simulated times are never NaN, and seq is unique, so a fourth
     * tuple element would never be reached. */
    if (a->when < b->when)
        return 1;
    if (a->when > b->when)
        return 0;
    if (a->prio != b->prio)
        return a->prio < b->prio;
    return a->seq < b->seq;
}

/* Core insert: stamps the next seq, takes its own reference to item. */
static int
heap_insert(Heap *self, double when, long prio, PyObject *item)
{
    if (self->size == self->cap) {
        Py_ssize_t newcap = self->cap ? self->cap * 2 : 64;
        Entry *newarr = PyMem_Realloc(self->arr, newcap * sizeof(Entry));
        if (newarr == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->arr = newarr;
        self->cap = newcap;
    }
    Entry e = {when, prio, self->count++, item};
    Py_INCREF(item);
    Py_ssize_t pos = self->size++;
    Entry *arr = self->arr;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (entry_lt(&e, &arr[parent])) {
            arr[pos] = arr[parent];
            pos = parent;
        } else
            break;
    }
    arr[pos] = e;
    return 0;
}

/* Place `e` in the hole at `pos` of arr[0..n), moving it towards the
 * leaves; returns its final index. */
static Py_ssize_t
sift_down(Entry *arr, Py_ssize_t n, Py_ssize_t pos, const Entry *e)
{
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && entry_lt(&arr[child + 1], &arr[child]))
            child++;
        if (entry_lt(&arr[child], e)) {
            arr[pos] = arr[child];
            pos = child;
        } else
            break;
    }
    arr[pos] = *e;
    return pos;
}

/* Core extract-min into *out; caller owns out->item.  size must be > 0.
 * Advances the heap's clock to the popped entry's time. */
static void
heap_extract(Heap *self, Entry *out)
{
    *out = self->arr[0];
    self->now = out->when;
    Entry last = self->arr[--self->size];
    if (self->size > 0)
        sift_down(self->arr, self->size, 0, &last);
}

static PyObject *
heap_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Heap *self = (Heap *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->arr = NULL;
    self->size = 0;
    self->cap = 0;
    self->count = 0;
    self->now = 0.0;
    return (PyObject *)self;
}

static int
heap_traverse(Heap *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->arr[i].item);
    return 0;
}

static int
heap_clear_impl(Heap *self)
{
    Py_ssize_t n = self->size;
    self->size = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_CLEAR(self->arr[i].item);
    return 0;
}

static void
heap_dealloc(Heap *self)
{
    PyObject_GC_UnTrack(self);
    heap_clear_impl(self);
    PyMem_Free(self->arr);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
heap_push(Heap *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "push() needs (when, prio, obj)");
        return NULL;
    }
    double when = PyFloat_AsDouble(args[0]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    long prio = PyLong_AsLong(args[1]);
    if (prio == -1 && PyErr_Occurred())
        return NULL;
    if (heap_insert(self, when, prio, args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
heap_pushnow(Heap *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* Schedule at the current clock — the succeed()/fail() hot path. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "pushnow() needs (prio, obj)");
        return NULL;
    }
    long prio = PyLong_AsLong(args[0]);
    if (prio == -1 && PyErr_Occurred())
        return NULL;
    if (heap_insert(self, self->now, prio, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
heap_pushdelay(Heap *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* Schedule at now + delay without boxing the clock. */
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "pushdelay() needs (delay, prio, obj)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    long prio = PyLong_AsLong(args[1]);
    if (prio == -1 && PyErr_Occurred())
        return NULL;
    if (heap_insert(self, self->now + delay, prio, args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
heap_pop(Heap *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty event heap");
        return NULL;
    }
    Entry e;
    heap_extract(self, &e);
    PyObject *ret = PyTuple_New(4);
    PyObject *when = PyFloat_FromDouble(e.when);
    PyObject *prio = PyLong_FromLong(e.prio);
    PyObject *seq = PyLong_FromLongLong(e.seq);
    if (ret == NULL || when == NULL || prio == NULL || seq == NULL) {
        Py_XDECREF(ret);
        Py_XDECREF(when);
        Py_XDECREF(prio);
        Py_XDECREF(seq);
        Py_DECREF(e.item);
        return NULL;
    }
    PyTuple_SET_ITEM(ret, 0, when);
    PyTuple_SET_ITEM(ret, 1, prio);
    PyTuple_SET_ITEM(ret, 2, seq);
    PyTuple_SET_ITEM(ret, 3, e.item); /* ref transferred */
    return ret;
}

static PyObject *
heap_pop2(Heap *self, PyObject *Py_UNUSED(ignored))
{
    /* (when, event) only — for dispatch loops that don't log. */
    if (self->size == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty event heap");
        return NULL;
    }
    Entry e;
    heap_extract(self, &e);
    PyObject *ret = PyTuple_New(2);
    PyObject *when = PyFloat_FromDouble(e.when);
    if (ret == NULL || when == NULL) {
        Py_XDECREF(ret);
        Py_XDECREF(when);
        Py_DECREF(e.item);
        return NULL;
    }
    PyTuple_SET_ITEM(ret, 0, when);
    PyTuple_SET_ITEM(ret, 1, e.item); /* ref transferred */
    return ret;
}

/* Take a scheduled entry out without dispatching it (a disarmed timer).
 * A linear scan: the callers keep at most one such entry per queue of
 * theirs, and pop order is the total (when, prio, seq) order whatever the
 * layout, so the heap replays exactly as if it had never held it. */
static int
heap_remove_item(Heap *self, PyObject *obj)
{
    Entry *arr = self->arr;
    Py_ssize_t i = 0;
    while (i < self->size && arr[i].item != obj)
        i++;
    if (i == self->size) {
        PyErr_SetString(PyExc_ValueError, "remove(): object is not scheduled");
        return -1;
    }
    PyObject *item = arr[i].item;
    Entry last = arr[--self->size];
    if (i < self->size) {
        Py_ssize_t pos = i;
        while (pos > 0) {
            Py_ssize_t parent = (pos - 1) >> 1;
            if (!entry_lt(&last, &arr[parent]))
                break;
            arr[pos] = arr[parent];
            pos = parent;
        }
        if (pos == i)
            sift_down(arr, self->size, i, &last);
        else
            arr[pos] = last;
    }
    Py_DECREF(item);
    return 0;
}

static PyObject *
heap_remove(Heap *self, PyObject *obj)
{
    if (heap_remove_item(self, obj) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *timeout_alloc(double delay, PyObject *value); /* forward */

/* A Timeout at the absolute instant `when`: the float a chain of relative
 * charges reached, pushed without re-rounding it through `when - now`. */
static PyObject *
timeout_at(Heap *self, double when)
{
    if (when < self->now) {
        PyErr_SetString(PyExc_ValueError, "timeout_at(): instant is in the past");
        return NULL;
    }
    PyObject *t = timeout_alloc(when - self->now, Py_None);
    if (t == NULL)
        return NULL;
    if (heap_insert(self, when, 1 /* PRIORITY_NORMAL */, t) < 0) {
        Py_DECREF(t);
        return NULL;
    }
    return t;
}

static PyObject *
heap_timeout_at(Heap *self, PyObject *arg)
{
    double when = PyFloat_AsDouble(arg);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    return timeout_at(self, when);
}

static PyObject *
heap_peektime(Heap *self, PyObject *Py_UNUSED(ignored))
{
    return PyFloat_FromDouble(self->size ? self->arr[0].when : INFINITY);
}

static Py_ssize_t
heap_len(Heap *self)
{
    return self->size;
}

static int
heap_bool(Heap *self)
{
    return self->size > 0;
}

static PyMethodDef heap_methods[] = {
    {"push", (PyCFunction)(void (*)(void))heap_push, METH_FASTCALL,
     "push(when, prio, obj) -> None  (seq is stamped by the heap)"},
    {"pushnow", (PyCFunction)(void (*)(void))heap_pushnow, METH_FASTCALL,
     "pushnow(prio, obj) -> None  (schedule at the current clock)"},
    {"pushdelay", (PyCFunction)(void (*)(void))heap_pushdelay, METH_FASTCALL,
     "pushdelay(delay, prio, obj) -> None  (schedule at now + delay)"},
    {"pop", (PyCFunction)heap_pop, METH_NOARGS,
     "pop() -> smallest (when, prio, seq, obj) tuple; advances the clock"},
    {"pop2", (PyCFunction)heap_pop2, METH_NOARGS,
     "pop2() -> smallest (when, obj) pair; advances the clock"},
    {"peektime", (PyCFunction)heap_peektime, METH_NOARGS,
     "peektime() -> time of the next entry, or inf when empty"},
    {"remove", (PyCFunction)heap_remove, METH_O,
     "remove(obj) -> None  (unschedule obj without dispatching it)"},
    {"timeout_at", (PyCFunction)heap_timeout_at, METH_O,
     "timeout_at(when) -> Timeout scheduled at the absolute instant when"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef heap_members[] = {
    {"count", T_LONGLONG, offsetof(Heap, count), READONLY,
     "total entries ever pushed (== the next sequence number)"},
    {"now", T_DOUBLE, offsetof(Heap, now), 0,
     "simulation clock: time of the last popped entry"},
    {NULL},
};

static PySequenceMethods heap_as_sequence = {
    .sq_length = (lenfunc)heap_len,
};

static PyNumberMethods heap_as_number = {
    .nb_bool = (inquiry)heap_bool,
};

static PyTypeObject HeapType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_simcore.EventHeap",
    .tp_doc = "C-accelerated (when, prio, seq, obj) priority queue + clock",
    .tp_basicsize = sizeof(Heap),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = heap_new,
    .tp_dealloc = (destructor)heap_dealloc,
    .tp_traverse = (traverseproc)heap_traverse,
    .tp_clear = (inquiry)heap_clear_impl,
    .tp_methods = heap_methods,
    .tp_members = heap_members,
    .tp_as_sequence = &heap_as_sequence,
    .tp_as_number = &heap_as_number,
};

/* ------------------------------------------------------------------ */
/* Shared helpers                                                     */
/* ------------------------------------------------------------------ */

/* Raise SimulationError (RuntimeError before configure()). */
static void
raise_simerror(const char *fmt, PyObject *a, PyObject *b)
{
    PyErr_Format(g_simerror ? g_simerror : PyExc_RuntimeError, fmt, a, b);
}

/* Schedule `obj` at now + delay on `owner`'s queue: ``owner`` is the
 * EventHeap itself or anything with a ``_queue`` that is one (the Engine
 * on the compiled kernel). */
static int
owner_push(PyObject *owner, double delay, long prio, PyObject *obj)
{
    if (Py_TYPE(owner) == &HeapType) {
        Heap *h = (Heap *)owner;
        return heap_insert(h, h->now + delay, prio, obj);
    }
    PyObject *queue = PyObject_GetAttr(owner, str__queue);
    if (queue == NULL)
        return -1;
    int rc = -1;
    if (Py_TYPE(queue) == &HeapType) {
        Heap *h = (Heap *)queue;
        rc = heap_insert(h, h->now + delay, prio, obj);
    } else {
        PyErr_SetString(PyExc_TypeError,
                        "a C event needs an engine on the C EventHeap");
    }
    Py_DECREF(queue);
    return rc;
}

/* The ``callbacks`` setter of every event type: a list or None. */
static int
set_callbacks_slot(PyObject **slot, PyObject *v)
{
    if (v == NULL || (v != Py_None && !PyList_Check(v))) {
        PyErr_SetString(PyExc_TypeError, "callbacks must be a list or None");
        return -1;
    }
    Py_INCREF(v);
    Py_XSETREF(*slot, v);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Timeout                                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *callbacks; /* NULL = fresh (no waiters yet, untracked);
                          * list while pending; Py_None once dispatched */
    PyObject *value;     /* NULL means None */
    double delay;
} TimeoutObj;

static int
timeout_traverse(TimeoutObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    return 0;
}

static int
timeout_clear_gc(TimeoutObj *self)
{
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    return 0;
}

static void
timeout_dealloc(TimeoutObj *self)
{
    PyObject_GC_UnTrack(self); /* no-op if never tracked */
    Py_XDECREF(self->callbacks);
    Py_XDECREF(self->value);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* A fresh, unscheduled Timeout. */
static PyObject *
timeout_alloc(double delay, PyObject *value)
{
    TimeoutObj *self = PyObject_GC_New(TimeoutObj, &TimeoutType);
    if (self == NULL)
        return NULL;
    self->callbacks = NULL;
    if (value == Py_None) {
        self->value = NULL;
    } else {
        Py_INCREF(value);
        self->value = value;
        /* A container value could close a reference cycle through us. */
        if (PyObject_IS_GC(value))
            PyObject_GC_Track(self);
    }
    self->delay = delay;
    /* Otherwise stay untracked: with no callbacks and an atomic value a
     * queued Timeout cannot participate in a cycle.  A waiter list
     * tracks us the moment it materialises. */
    return (PyObject *)self;
}

/* The Timeout's waiter list, allocated on first use. */
static PyObject *
timeout_waiters(TimeoutObj *self)
{
    if (self->callbacks == NULL) {
        self->callbacks = PyList_New(0);
        if (self->callbacks == NULL)
            return NULL;
        if (!PyObject_GC_IsTracked((PyObject *)self))
            PyObject_GC_Track(self);
    }
    return self->callbacks;
}

/* Shared constructor body.  ``owner`` may be the Engine or the EventHeap
 * itself (the Engine's ``timeout`` factory binds the heap directly to
 * skip one attribute lookup per event). */
static PyObject *
timeout_create(PyObject *owner, double delay, PyObject *value, long prio)
{
    if (delay < 0.0) {
        PyObject *d = PyFloat_FromDouble(delay);
        if (d != NULL) {
            PyErr_Format(PyExc_ValueError, "negative delay: %R", d);
            Py_DECREF(d);
        }
        return NULL;
    }
    PyObject *self = timeout_alloc(delay, value);
    if (self == NULL)
        return NULL;
    if (owner_push(owner, delay, prio, self) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return self;
}

/* Fast instantiation path: Timeout(owner, delay[, value[, priority]]). */
static PyObject *
timeout_type_vectorcall(PyObject *type, PyObject *const *args,
                        size_t nargsf, PyObject *kwnames)
{
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    if (nargs < 2 || nargs > 4) {
        PyErr_SetString(PyExc_TypeError,
                        "Timeout(engine, delay[, value[, priority]])");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[1]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    PyObject *value = nargs > 2 ? args[2] : Py_None;
    long prio = 1; /* PRIORITY_NORMAL */
    if (nargs > 3) {
        prio = PyLong_AsLong(args[3]);
        if (prio == -1 && PyErr_Occurred())
            return NULL;
    }
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *v = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, "value") == 0) {
                value = v;
            } else if (PyUnicode_CompareWithASCIIString(name, "priority") == 0) {
                prio = PyLong_AsLong(v);
                if (prio == -1 && PyErr_Occurred())
                    return NULL;
            } else {
                PyErr_Format(PyExc_TypeError,
                             "Timeout() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    return timeout_create(args[0], delay, value, prio);
}

/* Slow path kept for odd call shapes (e.g. type() tricks). */
static PyObject *
timeout_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", "delay", "value", "priority", NULL};
    PyObject *engine, *value = Py_None;
    double delay;
    long prio = 1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Od|Ol", kwlist,
                                     &engine, &delay, &value, &prio))
        return NULL;
    return timeout_create(engine, delay, value, prio);
}

static PyObject *
timeout_get_callbacks(TimeoutObj *self, void *closure)
{
    /* First access materialises the waiter list: a subscriber may close
     * a cycle through us from now on. */
    return Py_XNewRef(timeout_waiters(self));
}

static int
timeout_set_callbacks(TimeoutObj *self, PyObject *v, void *closure)
{
    if (set_callbacks_slot(&self->callbacks, v) < 0)
        return -1;
    if (v != Py_None && !PyObject_GC_IsTracked((PyObject *)self))
        PyObject_GC_Track(self);
    return 0;
}

static PyObject *
timeout_get_true(TimeoutObj *self, void *closure)
{
    /* _ok / _scheduled / triggered / ok: a Timeout is born triggered-ok. */
    Py_RETURN_TRUE;
}

static PyObject *
timeout_get_processed(TimeoutObj *self, void *closure)
{
    return PyBool_FromLong(self->callbacks == Py_None);
}

static PyObject *
timeout_get_value(TimeoutObj *self, void *closure)
{
    return Py_NewRef(self->value ? self->value : Py_None);
}

static PyObject *
timeout_repr(TimeoutObj *self)
{
    PyObject *d = PyFloat_FromDouble(self->delay);
    if (d == NULL)
        return NULL;
    PyObject *r = PyUnicode_FromFormat(
        "<Timeout %s delay=%R at %p>",
        self->callbacks == Py_None ? "processed" : "triggered", d, self);
    Py_DECREF(d);
    return r;
}

static PyGetSetDef timeout_getset[] = {
    {"callbacks", (getter)timeout_get_callbacks,
     (setter)timeout_set_callbacks,
     "pending waiter list; None once dispatched", NULL},
    {"_ok", (getter)timeout_get_true, NULL, "always True", NULL},
    {"_scheduled", (getter)timeout_get_true, NULL, "always True", NULL},
    {"triggered", (getter)timeout_get_true, NULL, "always True", NULL},
    {"ok", (getter)timeout_get_true, NULL, "always True", NULL},
    {"processed", (getter)timeout_get_processed, NULL,
     "True once callbacks have run", NULL},
    {"value", (getter)timeout_get_value, NULL, "the timeout's value", NULL},
    {"_value", (getter)timeout_get_value, NULL, "the timeout's value", NULL},
    {NULL},
};

static PyMemberDef timeout_members[] = {
    {"delay", T_DOUBLE, offsetof(TimeoutObj, delay), READONLY,
     "delay in simulated seconds"},
    {NULL},
};

static PyTypeObject TimeoutType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    /* __name__ must be "Timeout": determinism event logs record the type
     * name and must match the pure-Python kernel's exactly. */
    .tp_name = "_simcore.Timeout",
    .tp_doc = "Born-scheduled delay event (C fast path)",
    .tp_basicsize = sizeof(TimeoutObj),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = timeout_new,
    .tp_vectorcall = timeout_type_vectorcall,
    .tp_dealloc = (destructor)timeout_dealloc,
    .tp_traverse = (traverseproc)timeout_traverse,
    .tp_clear = (inquiry)timeout_clear_gc,
    .tp_repr = (reprfunc)timeout_repr,
    .tp_getset = timeout_getset,
    .tp_members = timeout_members,
};

/* ------------------------------------------------------------------ */
/* Event                                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *engine;
    PyObject *callbacks;   /* NULL = no waiter yet; list while pending;
                            * Py_None once processed */
    PyObject *value;       /* NULL while pending */
    PyObject *weakreflist;
    signed char ok;        /* -1 pending, 0 failed, 1 succeeded */
    char scheduled;
} EventObj;

static PyTypeObject EventType;   /* forward */
static PyTypeObject ProcessType; /* forward */

static int
event_traverse(EventObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    return 0;
}

static int
event_clear(EventObj *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    return 0;
}

static void
event_dealloc(EventObj *self)
{
    PyObject_GC_UnTrack(self);
    if (self->weakreflist != NULL)
        PyObject_ClearWeakRefs((PyObject *)self);
    event_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Allocation for Python subclasses (Request, AnyOf, AllOf): a pending
 * event with no engine yet; their __init__ calls Event.__init__(engine). */
static PyObject *
event_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    EventObj *self = (EventObj *)type->tp_alloc(type, 0);
    if (self != NULL)
        self->ok = -1;
    return (PyObject *)self;
}

static int
event_init(EventObj *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", NULL};
    PyObject *engine;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:Event", kwlist, &engine))
        return -1;
    Py_INCREF(engine);
    Py_XSETREF(self->engine, engine);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    self->ok = -1;
    self->scheduled = 0;
    return 0;
}

static PyObject *event_alloc(PyObject *engine); /* forward */

/* Fast instantiation path: Event(engine). */
static PyObject *
event_type_vectorcall(PyObject *type, PyObject *const *args,
                      size_t nargsf, PyObject *kwnames)
{
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    if (nargs + nkw != 1 || (nkw && PyUnicode_CompareWithASCIIString(
                                        PyTuple_GET_ITEM(kwnames, 0),
                                        "engine") != 0)) {
        PyErr_SetString(PyExc_TypeError, "Event(engine)");
        return NULL;
    }
    return event_alloc(args[0]);
}

/* A pending Event on `engine`. */
static PyObject *
event_alloc(PyObject *engine)
{
    EventObj *self = PyObject_GC_New(EventObj, &EventType);
    if (self == NULL)
        return NULL;
    self->engine = Py_NewRef(engine);
    self->callbacks = NULL;
    self->value = NULL;
    self->weakreflist = NULL;
    self->ok = -1;
    self->scheduled = 0;
    PyObject_GC_Track(self);
    return (PyObject *)self;
}

/* The event's waiter list, allocated on first use. */
static PyObject *
event_waiters(EventObj *self)
{
    if (self->callbacks == NULL)
        self->callbacks = PyList_New(0);
    return self->callbacks;
}

/* succeed()/fail() body: settle with (ok, value) and schedule now. */
static PyObject *
event_trigger(EventObj *self, int ok, PyObject *value, long prio)
{
    if (self->scheduled) {
        raise_simerror("%R already triggered", (PyObject *)self, NULL);
        return NULL;
    }
    if (self->engine == NULL) {
        PyErr_SetString(PyExc_TypeError, "event has no engine");
        return NULL;
    }
    self->ok = (signed char)ok;
    Py_INCREF(value);
    Py_XSETREF(self->value, value);
    self->scheduled = 1;
    if (owner_push(self->engine, 0.0, prio, (PyObject *)self) < 0)
        return NULL;
    return Py_NewRef(self);
}

/* Parse (first[, priority]) with either passed by keyword. */
static int
parse_trigger_args(PyObject *const *args, Py_ssize_t nargs,
                   PyObject *kwnames, const char *first_name,
                   PyObject **first, long *prio)
{
    PyObject *prio_obj = NULL;
    if (nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "too many arguments");
        return -1;
    }
    if (nargs > 0)
        *first = args[0];
    if (nargs > 1)
        prio_obj = args[1];
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    for (Py_ssize_t i = 0; i < nkw; i++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, i);
        if (PyUnicode_CompareWithASCIIString(name, first_name) == 0) {
            *first = args[nargs + i];
        } else if (PyUnicode_CompareWithASCIIString(name, "priority") == 0) {
            prio_obj = args[nargs + i];
        } else {
            PyErr_Format(PyExc_TypeError,
                         "unexpected keyword argument %R", name);
            return -1;
        }
    }
    if (prio_obj != NULL) {
        *prio = PyLong_AsLong(prio_obj);
        if (*prio == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static PyObject *
event_succeed(EventObj *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    PyObject *value = Py_None;
    long prio = 1; /* PRIORITY_NORMAL */
    if (parse_trigger_args(args, nargs, kwnames, "value", &value, &prio) < 0)
        return NULL;
    return event_trigger(self, 1, value, prio);
}

static PyObject *
event_fail(EventObj *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    PyObject *exc = NULL;
    long prio = 1;
    if (parse_trigger_args(args, nargs, kwnames, "exception", &exc, &prio) < 0)
        return NULL;
    if (exc == NULL) {
        PyErr_SetString(PyExc_TypeError, "fail() needs an exception");
        return NULL;
    }
    if (!PyExceptionInstance_Check(exc)) {
        PyErr_Format(PyExc_TypeError, "fail() needs an exception, got %R", exc);
        return NULL;
    }
    return event_trigger(self, 0, exc, prio);
}

static PyObject *
event_get_callbacks(EventObj *self, void *closure)
{
    return Py_XNewRef(event_waiters(self));
}

static int
event_set_callbacks(EventObj *self, PyObject *v, void *closure)
{
    return set_callbacks_slot(&self->callbacks, v);
}

static PyObject *
event_get__ok(EventObj *self, void *closure)
{
    if (self->ok < 0)
        Py_RETURN_NONE;
    return PyBool_FromLong(self->ok);
}

static PyObject *
event_get__value(EventObj *self, void *closure)
{
    return Py_NewRef(self->value ? self->value : g_pending);
}

static PyObject *
event_get_scheduled(EventObj *self, void *closure)
{
    return PyBool_FromLong(self->scheduled);
}

static PyObject *
event_get_processed(EventObj *self, void *closure)
{
    return PyBool_FromLong(self->callbacks == Py_None);
}

static PyObject *
event_get_ok(EventObj *self, void *closure)
{
    if (self->ok < 0) {
        PyErr_SetString(g_simerror ? g_simerror : PyExc_RuntimeError,
                        "event has not been triggered yet");
        return NULL;
    }
    return PyBool_FromLong(self->ok);
}

static PyObject *
event_get_value(EventObj *self, void *closure)
{
    if (self->value == NULL) {
        PyErr_SetString(g_simerror ? g_simerror : PyExc_RuntimeError,
                        "event value is not yet available");
        return NULL;
    }
    return Py_NewRef(self->value);
}

static PyObject *
event_repr(EventObj *self)
{
    const char *name = Py_TYPE(self)->tp_name;
    const char *dot = strrchr(name, '.');
    return PyUnicode_FromFormat(
        "<%s %s at %p>", dot ? dot + 1 : name,
        self->callbacks == Py_None ? "processed"
                                   : (self->scheduled ? "triggered" : "pending"),
        self);
}

static PyMethodDef event_methods[] = {
    {"succeed", (PyCFunction)(void (*)(void))event_succeed,
     METH_FASTCALL | METH_KEYWORDS,
     "succeed(value=None, priority=PRIORITY_NORMAL) -> self"},
    {"fail", (PyCFunction)(void (*)(void))event_fail,
     METH_FASTCALL | METH_KEYWORDS,
     "fail(exception, priority=PRIORITY_NORMAL) -> self  (re-raised in "
     "waiters)"},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef event_getset[] = {
    {"callbacks", (getter)event_get_callbacks, (setter)event_set_callbacks,
     "pending waiter list; None once processed", NULL},
    {"_ok", (getter)event_get__ok, NULL, "None until triggered, then bool",
     NULL},
    {"_value", (getter)event_get__value, NULL, "the value, PENDING until set",
     NULL},
    {"_scheduled", (getter)event_get_scheduled, NULL,
     "True once triggered", NULL},
    {"triggered", (getter)event_get_scheduled, NULL,
     "True once the event has been scheduled to fire (or has fired)", NULL},
    {"processed", (getter)event_get_processed, NULL,
     "True once callbacks have run", NULL},
    {"ok", (getter)event_get_ok, NULL,
     "True if the event succeeded; only valid once triggered", NULL},
    {"value", (getter)event_get_value, NULL,
     "the event's value; only valid once triggered", NULL},
    {NULL},
};

static PyMemberDef event_members[] = {
    {"engine", T_OBJECT, offsetof(EventObj, engine), READONLY,
     "the Engine (or EventHeap) the event is scheduled on"},
    {NULL},
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    /* __name__ "Event", like the pure-Python kernel's class. */
    .tp_name = "_simcore.Event",
    .tp_doc = "A one-shot occurrence in simulated time (C fast path)",
    .tp_basicsize = sizeof(EventObj),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_new = event_new,
    .tp_init = (initproc)event_init,
    .tp_vectorcall = event_type_vectorcall,
    .tp_dealloc = (destructor)event_dealloc,
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_repr = (reprfunc)event_repr,
    .tp_weaklistoffset = offsetof(EventObj, weakreflist),
    .tp_methods = event_methods,
    .tp_getset = event_getset,
    .tp_members = event_members,
};

/* ------------------------------------------------------------------ */
/* Process                                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    EventObj ev;
    PyObject *generator;
    PyObject *name;
    PyObject *target;      /* the event the process waits on, or NULL */
    PyObject *interrupts;  /* NULL (None) until the first interrupt */
    char defused;
} ProcessObj;

static int
process_traverse(ProcessObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->generator);
    Py_VISIT(self->name);
    Py_VISIT(self->target);
    Py_VISIT(self->interrupts);
    return event_traverse(&self->ev, visit, arg);
}

static int
process_clear(ProcessObj *self)
{
    Py_CLEAR(self->generator);
    Py_CLEAR(self->name);
    Py_CLEAR(self->target);
    Py_CLEAR(self->interrupts);
    return event_clear(&self->ev);
}

static void
process_dealloc(ProcessObj *self)
{
    PyObject_GC_UnTrack(self);
    if (self->ev.weakreflist != NULL)
        PyObject_ClearWeakRefs((PyObject *)self);
    process_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Process(engine, generator[, name[, delay]]): the process and its boot
 * Timeout, built in one call.  The boot resumes it once: urgently at the
 * current time, or, with a delay, at now + delay with PRIORITY_NORMAL —
 * where a Timeout(delay) made now would fire. */
static PyObject *
process_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *engine, *generator, *name = Py_None, *delay_obj = Py_None;
    Py_ssize_t n = PyTuple_GET_SIZE(args);
    if (kwds == NULL && n >= 2 && n <= 4) {
        engine = PyTuple_GET_ITEM(args, 0);
        generator = PyTuple_GET_ITEM(args, 1);
        if (n >= 3)
            name = PyTuple_GET_ITEM(args, 2);
        if (n == 4)
            delay_obj = PyTuple_GET_ITEM(args, 3);
    } else {
        static char *kwlist[] = {"engine", "generator", "name", "delay", NULL};
        if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|OO:Process", kwlist,
                                         &engine, &generator, &name,
                                         &delay_obj))
            return NULL;
    }
    double delay = 0.0;
    long prio = 0; /* PRIORITY_URGENT */
    if (delay_obj != Py_None) {
        delay = PyFloat_AsDouble(delay_obj);
        if (delay == -1.0 && PyErr_Occurred())
            return NULL;
        if (delay < 0.0) {
            PyErr_Format(PyExc_ValueError, "negative delay: %R", delay_obj);
            return NULL;
        }
        prio = 1; /* PRIORITY_NORMAL */
    }
    /* name or getattr(generator, "__name__", "process") */
    int named = PyObject_IsTrue(name);
    if (named < 0)
        return NULL;
    if (named) {
        Py_INCREF(name);
    } else {
        name = PyObject_GetAttr(generator, str___name__);
        if (name == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                return NULL;
            PyErr_Clear();
            name = PyUnicode_FromString("process");
            if (name == NULL)
                return NULL;
        }
    }
    ProcessObj *self = (ProcessObj *)type->tp_alloc(type, 0);
    if (self == NULL) {
        Py_DECREF(name);
        return NULL;
    }
    self->ev.engine = Py_NewRef(engine);
    self->ev.ok = -1;
    self->generator = Py_NewRef(generator);
    self->name = name;
    TimeoutObj *boot = (TimeoutObj *)timeout_alloc(delay, Py_None);
    if (boot == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    self->target = (PyObject *)boot;
    PyObject *waiters;
    if (owner_push(engine, delay, prio, (PyObject *)boot) < 0 ||
        (waiters = timeout_waiters(boot)) == NULL ||
        PyList_Append(waiters, (PyObject *)self) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

/* Everything happened in process_new. */
static int
process_init(PyObject *self, PyObject *args, PyObject *kwds)
{
    return 0;
}

static int c_resume(ProcessObj *p, PyObject *event); /* forward */

/* A process is its own resume callback: process(event). */
static PyObject *
process_call(ProcessObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *event;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError, "a process takes no keywords");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "Process", 1, 1, &event))
        return NULL;
    if (c_resume(self, event) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
process_get_is_alive(ProcessObj *self, void *closure)
{
    return PyBool_FromLong(!self->ev.scheduled);
}

/* _target / _interrupts: NULL reads as None. */
static PyObject *
process_get_opt(ProcessObj *self, void *closure)
{
    PyObject *v = *(PyObject **)((char *)self + (Py_ssize_t)closure);
    return Py_NewRef(v ? v : Py_None);
}

static int
process_set_opt(ProcessObj *self, PyObject *v, void *closure)
{
    PyObject **slot = (PyObject **)((char *)self + (Py_ssize_t)closure);
    Py_XSETREF(*slot, (v == NULL || v == Py_None) ? NULL : Py_NewRef(v));
    return 0;
}

static PyObject *
process_get_defused(ProcessObj *self, void *closure)
{
    return PyBool_FromLong(self->defused);
}

static int
process_set_defused(ProcessObj *self, PyObject *v, void *closure)
{
    int truth = v == NULL ? 0 : PyObject_IsTrue(v);
    if (truth < 0)
        return -1;
    self->defused = (char)truth;
    return 0;
}

static PyGetSetDef process_getset[] = {
    {"is_alive", (getter)process_get_is_alive, NULL,
     "True until the generator has finished", NULL},
    {"_target", (getter)process_get_opt, (setter)process_set_opt,
     "the event the process waits on",
     (void *)offsetof(ProcessObj, target)},
    {"_interrupts", (getter)process_get_opt, (setter)process_set_opt,
     "pending interrupts; None until the first interrupt()",
     (void *)offsetof(ProcessObj, interrupts)},
    {"_defused", (getter)process_get_defused, (setter)process_set_defused,
     "True: a failure is not escalated by the kernel", NULL},
    {NULL},
};

static PyMemberDef process_members[] = {
    {"generator", T_OBJECT, offsetof(ProcessObj, generator), READONLY,
     "the generator the process runs"},
    {"name", T_OBJECT, offsetof(ProcessObj, name), 0,
     "the process name (default: the generator's __name__)"},
    {NULL},
};

static PyTypeObject ProcessType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    /* __name__ "Process", like the pure-Python kernel's class. */
    .tp_name = "_simcore.Process",
    .tp_doc = "A generator-based simulated process (C fast path)",
    .tp_basicsize = sizeof(ProcessObj),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_base = &EventType,
    .tp_new = process_new,
    .tp_init = process_init,
    .tp_call = (ternaryfunc)process_call,
    .tp_dealloc = (destructor)process_dealloc,
    .tp_traverse = (traverseproc)process_traverse,
    .tp_clear = (inquiry)process_clear,
    .tp_getset = process_getset,
    .tp_members = process_members,
};

/* ------------------------------------------------------------------ */
/* C resume: the mirror's Process.__call__ / _finish                   */
/* ------------------------------------------------------------------ */

static PyTypeObject AnyOfType, AllOfType;               /* forward */
typedef struct CondObj CondObj;                          /* forward */
static int cond_fire(CondObj *c, PyObject *event);      /* forward */

/* Mirror of Process._finish: the generator ended with `value`.  A success
 * with no waiter, or with one AllOf join as its only waiter, settles in
 * place (the join counted down here, no heap event); anything else — a
 * failure always — is scheduled now.  Returns 0, or -1 with an exception
 * set. */
static int
c_finish(ProcessObj *p, int ok, PyObject *value)
{
    p->ev.ok = (signed char)ok;
    Py_INCREF(value);
    Py_XSETREF(p->ev.value, value);
    p->ev.scheduled = 1;
    PyObject *cbs = p->ev.callbacks; /* NULL, or a list: nobody set None */
    Py_ssize_t n = (cbs == NULL || cbs == Py_None) ? 0 : PyList_GET_SIZE(cbs);
    PyObject *join = NULL;
    if (ok && n == 1) {
        PyObject *cb = PyList_GET_ITEM(cbs, 0);
        if (Py_IS_TYPE(cb, &AllOfType))
            join = Py_NewRef(cb);
    }
    if (!ok || (n > 0 && join == NULL))
        return owner_push(p->ev.engine, 0.0, 1 /* PRIORITY_NORMAL */,
                          (PyObject *)p);
    Py_XSETREF(p->ev.callbacks, Py_NewRef(Py_None));
    if (join == NULL)
        return 0;
    int rc = cond_fire((CondObj *)join, (PyObject *)p);
    Py_DECREF(join);
    return rc;
}

/* Where an event keeps its waiter list, or NULL for a non-event. */
static PyObject **
waiters_slot(PyObject *obj)
{
    if (Py_TYPE(obj) == &TimeoutType)
        return &((TimeoutObj *)obj)->callbacks;
    if (PyObject_TypeCheck(obj, &EventType))
        return &((EventObj *)obj)->callbacks;
    return NULL;
}

static PyTypeObject HandlerType;                       /* forward */
static int handler_resume(PyObject *h, PyObject *event); /* forward */
static PyObject *process_name(ProcessObj *p);            /* forward */

/* Advance p's generator once: throw its first pending interrupt, else send
 * the value of the wake-up `event` (throw it, for a failed event; send None
 * when `event` is NULL).  Returns 1 with *out the yielded object, 0 with
 * *out the return value, -1 when the generator raised and -2 on a kernel
 * error (both with the exception set, *out NULL). */
static int
gen_advance(ProcessObj *p, PyObject *event, PyObject **out)
{
    PyObject *gen = p->generator, *intrs = p->interrupts;
    *out = NULL;
    if (intrs != NULL && PyList_Check(intrs) && PyList_GET_SIZE(intrs) > 0) {
        PyObject *intr = Py_NewRef(PyList_GET_ITEM(intrs, 0));
        if (PyList_SetSlice(intrs, 0, 1, NULL) < 0) {
            Py_DECREF(intr);
            return -2;
        }
        *out = PyObject_CallMethodOneArg(gen, str_throw, intr);
        Py_DECREF(intr);
    } else {
        int ok;
        PyObject *value;
        if (event == NULL) {
            ok = 1;
            value = Py_None;
        } else if (Py_TYPE(event) == &TimeoutType) {
            ok = 1;
            value = ((TimeoutObj *)event)->value;
            value = value ? value : Py_None;
        } else if (PyObject_TypeCheck(event, &EventType)) {
            ok = ((EventObj *)event)->ok > 0;
            value = ((EventObj *)event)->value;
            value = value ? value : g_pending;
        } else {
            PyObject *name = process_name(p);
            if (name != NULL) {
                raise_simerror("process %R was resumed by %R, not an Event",
                               name, event);
                Py_DECREF(name);
            }
            return -2;
        }
        if (ok) {
            /* generator.send(value); a plain return arrives as
             * PYGEN_RETURN, with no StopIteration object made. */
            if (PyIter_Send(gen, value, out) == PYGEN_RETURN)
                return 0;
        } else {
            *out = PyObject_CallMethodOneArg(gen, str_throw, value);
        }
    }
    if (*out != NULL)
        return 1;
    if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
        PyObject *etype, *evalue, *etb;
        PyErr_Fetch(&etype, &evalue, &etb);
        PyErr_NormalizeException(&etype, &evalue, &etb);
        *out = evalue ? PyObject_GetAttrString(evalue, "value")
                      : Py_NewRef(Py_None);
        Py_XDECREF(etype);
        Py_XDECREF(evalue);
        Py_XDECREF(etb);
        return *out == NULL ? -2 : 0;
    }
    return -1;
}

/* The exception a generator raised, normalized and with its traceback
 * attached (a new reference; the error indicator is cleared).  NULL, with
 * the exception left set, for KeyboardInterrupt and SystemExit: those
 * propagate instead of failing a process. */
static PyObject *
fetch_raised(void)
{
    if (PyErr_ExceptionMatches(PyExc_KeyboardInterrupt) ||
        PyErr_ExceptionMatches(PyExc_SystemExit))
        return NULL;
    PyObject *etype, *evalue, *etb;
    PyErr_Fetch(&etype, &evalue, &etb);
    PyErr_NormalizeException(&etype, &evalue, &etb);
    if (etb != NULL && evalue != NULL)
        PyException_SetTraceback(evalue, etb);
    Py_XDECREF(etype);
    Py_XDECREF(etb);
    return evalue;
}

/* Unhandled in-process exception: fail the process event; escalation
 * happens at dispatch time if nobody watches. */
static int
c_fail_raised(ProcessObj *p)
{
    PyObject *exc = fetch_raised();
    if (exc == NULL)
        return -1;
    int rc = c_finish(p, 0, exc);
    Py_DECREF(exc);
    return rc;
}

/* Wait on `next`, which p's generator yielded: 0 once subscribed (p->target
 * takes the caller's reference), 1 when it already fired (the caller keeps
 * its reference and loops around synchronously), -1 with SimulationError
 * for a non-event. */
static int
c_subscribe(ProcessObj *p, PyObject *next)
{
    PyObject **slot = waiters_slot(next);
    if (slot == NULL) {
        PyObject *name = process_name(p);
        if (name != NULL) {
            raise_simerror("process %R yielded %R, not an Event", name, next);
            Py_DECREF(name);
        }
        return -1;
    }
    if (*slot == Py_None)
        return 1;
    PyObject *waiters = Py_TYPE(next) == &TimeoutType
                            ? timeout_waiters((TimeoutObj *)next)
                            : event_waiters((EventObj *)next);
    if (waiters == NULL || PyList_Append(waiters, (PyObject *)p) < 0)
        return -1;
    Py_XSETREF(p->target, next);
    return 0;
}

/* Mirror of Process.__call__.  Returns 0 on success, -1 with an exception
 * set on failure.  Every branch corresponds to a line of the Python
 * implementation in engine.py — keep them in sync.  A message handler
 * process runs its own state machine (handler_resume). */
static int
c_resume(ProcessObj *p, PyObject *event)
{
    if (Py_IS_TYPE(p, &HandlerType))
        return handler_resume((PyObject *)p, event);
    int result = -1;
    PyObject *out;
    Py_INCREF(event); /* we re-bind `event` while chaining */
    for (;;) {
        int rc = gen_advance(p, event, &out);
        if (rc == 1) {
            int sub = c_subscribe(p, out);
            if (sub == 1) {
                /* Already fired: loop around synchronously. */
                Py_SETREF(event, out);
                continue;
            }
            if (sub < 0)
                Py_DECREF(out);
            else
                result = 0;
        } else if (rc == 0) {
            result = c_finish(p, 1, out);
            Py_DECREF(out);
        } else if (rc == -1) {
            result = c_fail_raised(p);
        }
        break;
    }
    Py_DECREF(event);
    return result;
}

static PyTypeObject DeadlineType;                        /* forward */
typedef struct DeadlineObj DeadlineObj;                  /* forward */
static int dq_discard(DeadlineObj *q, PyObject *reply);  /* forward */

/* Invoke one dispatched event's callback list (already detached). */
static int
run_callbacks(PyObject *cbs, PyObject *event)
{
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(cbs); i++) {
        PyObject *cb = Py_NewRef(PyList_GET_ITEM(cbs, i));
        int rc;
        if (PyObject_TypeCheck(cb, &ProcessType)) {
            rc = c_resume((ProcessObj *)cb, event);
        } else if (Py_IS_TYPE(cb, &AllOfType) || Py_IS_TYPE(cb, &AnyOfType)) {
            rc = cond_fire((CondObj *)cb, event);
        } else if (Py_IS_TYPE(cb, &DeadlineType)) {
            rc = dq_discard((DeadlineObj *)cb, event);
        } else {
            PyObject *r = PyObject_CallOneArg(cb, event);
            rc = r == NULL ? -1 : 0;
            Py_XDECREF(r);
        }
        Py_DECREF(cb);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* AnyOf, AllOf: the mirror's _ConditionEvent                          */
/* ------------------------------------------------------------------ */

/* A composite event over `events`: AnyOf settles when one child fires,
 * AllOf when all have.  The condition is its own callback on each child
 * it subscribed to (the first `n_sub` of `events`), as a process is its
 * own resume callback, and takes that callback back from every child still
 * pending once it settles (`_detach`).  The value is a dict, child ->
 * value: of every child for AllOf, of the children processed by then for
 * AnyOf.  A failing child fails both with its exception. */
struct CondObj {
    EventObj ev;
    PyObject *events;   /* list of the children */
    Py_ssize_t n_fired; /* AllOf: children fired so far */
    Py_ssize_t n_sub;   /* children subscribed to (a prefix of events) */
};

/* A child's outcome: *ok and *value (borrowed; PENDING while it has none),
 * and whether it is scheduled and processed.  -1 with AttributeError for
 * an object that is no event. */
static int
child_state(PyObject *ev, int *scheduled, int *processed, int *ok,
            PyObject **value)
{
    if (Py_TYPE(ev) == &TimeoutType) {
        TimeoutObj *t = (TimeoutObj *)ev;
        *scheduled = *ok = 1;
        *processed = t->callbacks == Py_None;
        *value = t->value ? t->value : Py_None;
        return 0;
    }
    if (PyObject_TypeCheck(ev, &EventType)) {
        EventObj *e = (EventObj *)ev;
        *scheduled = e->scheduled;
        *processed = e->callbacks == Py_None;
        *ok = e->ok > 0;
        *value = e->value ? e->value : g_pending;
        return 0;
    }
    PyErr_Format(PyExc_AttributeError, "%R is not an event", ev);
    return -1;
}

/* _detach: drop our callback from every still-pending subscribed child. */
static void
cond_detach(CondObj *c)
{
    Py_ssize_t n = Py_MIN(c->n_sub, PyList_GET_SIZE(c->events));
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject **slot = waiters_slot(PyList_GET_ITEM(c->events, i));
        PyObject *cbs = slot ? *slot : NULL;
        if (cbs == NULL || !PyList_Check(cbs))
            continue;
        for (Py_ssize_t j = 0; j < PyList_GET_SIZE(cbs); j++) {
            if (PyList_GET_ITEM(cbs, j) == (PyObject *)c) {
                PyList_SetSlice(cbs, j, j + 1, NULL);
                break;
            }
        }
    }
}

/* The value dict: every child (AllOf), or the processed ones (AnyOf). */
static PyObject *
cond_collect(CondObj *c, int all)
{
    PyObject *values = PyDict_New();
    if (values == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(c->events); i++) {
        PyObject *ev = PyList_GET_ITEM(c->events, i), *value;
        int scheduled, processed, ok;
        if (child_state(ev, &scheduled, &processed, &ok, &value) < 0 ||
            ((all || (scheduled && processed)) &&
             PyDict_SetItem(values, ev, value) < 0)) {
            Py_DECREF(values);
            return NULL;
        }
    }
    return values;
}

/* Settle the condition with (ok, value), stealing `value`, and detach. */
static int
cond_settle(CondObj *c, int ok, PyObject *value)
{
    if (value == NULL)
        return -1;
    PyObject *r = event_trigger(&c->ev, ok, value, 1 /* PRIORITY_NORMAL */);
    Py_DECREF(value);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    cond_detach(c);
    return 0;
}

/* Mirror of AnyOf._on_fire / AllOf._on_fire: the child `event` fired. */
static int
cond_fire(CondObj *c, PyObject *event)
{
    if (c->ev.scheduled)
        return 0;
    int scheduled, processed, ok;
    PyObject *value;
    if (child_state(event, &scheduled, &processed, &ok, &value) < 0)
        return -1;
    if (!ok) {
        if (!PyExceptionInstance_Check(value)) {
            PyErr_Format(PyExc_TypeError, "fail() needs an exception, got %R",
                         value);
            return -1;
        }
        return cond_settle(c, 0, Py_NewRef(value));
    }
    if (Py_IS_TYPE(c, &AnyOfType))
        return cond_settle(c, 1, cond_collect(c, 0));
    if (++c->n_fired == PyList_GET_SIZE(c->events))
        return cond_settle(c, 1, cond_collect(c, 1));
    return 0;
}

/* AnyOf(engine, events) / AllOf(engine, events): subscribe to each child in
 * order; one already processed fires at once, and a condition settled that
 * way subscribes to no later child.  No children: true at once. */
static PyObject *
cond_create(PyTypeObject *type, PyObject *engine, PyObject *events)
{
    CondObj *c = (CondObj *)type->tp_alloc(type, 0);
    if (c == NULL)
        return NULL;
    c->ev.engine = Py_NewRef(engine);
    c->ev.ok = -1;
    if ((c->events = PySequence_List(events)) == NULL)
        goto fail;
    if (PyList_GET_SIZE(c->events) == 0) {
        if (cond_settle(c, 1, PyDict_New()) < 0)
            goto fail;
        return (PyObject *)c;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(c->events); i++) {
        PyObject *ev = PyList_GET_ITEM(c->events, i);
        PyObject **slot = waiters_slot(ev);
        if (slot == NULL) {
            PyErr_Format(PyExc_AttributeError, "%R is not an event", ev);
            goto fail;
        }
        if (*slot == Py_None) {
            /* Already fired and processed: settle synchronously. */
            if (cond_fire(c, ev) < 0)
                goto fail;
            if (c->ev.scheduled)
                break;
            continue;
        }
        PyObject *waiters = Py_TYPE(ev) == &TimeoutType
                                ? timeout_waiters((TimeoutObj *)ev)
                                : event_waiters((EventObj *)ev);
        if (waiters == NULL || PyList_Append(waiters, (PyObject *)c) < 0)
            goto fail;
        c->n_sub++;
    }
    return (PyObject *)c;
fail:
    Py_DECREF(c);
    return NULL;
}

static PyObject *
cond_type_vectorcall(PyObject *type, PyObject *const *args, size_t nargsf,
                     PyObject *kwnames)
{
    if (PyVectorcall_NARGS(nargsf) != 2 || kwnames != NULL) {
        PyErr_Format(PyExc_TypeError, "%s(engine, events)",
                     ((PyTypeObject *)type)->tp_name + strlen("_simcore."));
        return NULL;
    }
    return cond_create((PyTypeObject *)type, args[0], args[1]);
}

static PyObject *
cond_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", "events", NULL};
    PyObject *engine, *events;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO", kwlist, &engine,
                                     &events))
        return NULL;
    return cond_create(type, engine, events);
}

/* Everything happened in cond_new. */
static int
cond_init(PyObject *self, PyObject *args, PyObject *kwds)
{
    return 0;
}

/* A condition is its own callback: cond(event). */
static PyObject *
cond_call(CondObj *c, PyObject *args, PyObject *kwds)
{
    PyObject *event;
    if ((kwds != NULL && PyDict_GET_SIZE(kwds) > 0) ||
        !PyArg_UnpackTuple(args, "condition", 1, 1, &event)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "a condition takes no keywords");
        return NULL;
    }
    if (cond_fire(c, event) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
cond_py_detach(CondObj *c, PyObject *Py_UNUSED(ignored))
{
    cond_detach(c);
    Py_RETURN_NONE;
}

static int
cond_traverse(CondObj *c, visitproc visit, void *arg)
{
    Py_VISIT(c->events);
    return event_traverse(&c->ev, visit, arg);
}

static int
cond_clear(CondObj *c)
{
    Py_CLEAR(c->events);
    return event_clear(&c->ev);
}

static void
cond_dealloc(CondObj *c)
{
    PyObject_GC_UnTrack(c);
    if (c->ev.weakreflist != NULL)
        PyObject_ClearWeakRefs((PyObject *)c);
    cond_clear(c);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static PyMethodDef cond_methods[] = {
    {"_detach", (PyCFunction)cond_py_detach, METH_NOARGS,
     "drop the condition's callback from every still-pending child"},
    {NULL, NULL, 0, NULL},
};

/* _on_fire: the callback the condition subscribes to its children, which
 * is the condition itself. */
static PyObject *
cond_get_on_fire(CondObj *c, void *closure)
{
    return Py_NewRef(c);
}

static PyGetSetDef cond_getset[] = {
    {"_on_fire", (getter)cond_get_on_fire, NULL,
     "the callback on each child: the condition itself", NULL},
    {NULL},
};

static PyMemberDef cond_members[] = {
    {"events", T_OBJECT, offsetof(CondObj, events), READONLY,
     "the child events"},
    {"_n_fired", T_PYSSIZET, offsetof(CondObj, n_fired), READONLY,
     "AllOf: children fired so far"},
    {"_n_sub", T_PYSSIZET, offsetof(CondObj, n_sub), READONLY,
     "children subscribed to (the first _n_sub of events)"},
    {NULL},
};

/* __name__s "AnyOf" and "AllOf", like the pure-Python kernel's classes. */
#define COND_TYPE(var, name, doc)                                           \
    static PyTypeObject var = {                                             \
        PyVarObject_HEAD_INIT(NULL, 0)                                      \
        .tp_name = "_simcore." name,                                        \
        .tp_doc = doc,                                                      \
        .tp_basicsize = sizeof(CondObj),                                    \
        .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,                \
        .tp_base = &EventType,                                              \
        .tp_new = cond_new,                                                 \
        .tp_init = cond_init,                                               \
        .tp_vectorcall = cond_type_vectorcall,                              \
        .tp_call = (ternaryfunc)cond_call,                                  \
        .tp_dealloc = (destructor)cond_dealloc,                             \
        .tp_traverse = (traverseproc)cond_traverse,                         \
        .tp_clear = (inquiry)cond_clear,                                    \
        .tp_methods = cond_methods,                                         \
        .tp_members = cond_members,                                         \
        .tp_getset = cond_getset,                                           \
    }

COND_TYPE(AnyOfType, "AnyOf",
          "Fires as soon as any child event fires (value: dict of fired "
          "events)");
COND_TYPE(AllOfType, "AllOf",
          "Fires once all child events have fired (value: dict of all "
          "values)");

/* ------------------------------------------------------------------ */
/* drain(): the non-logging dispatch loop                              */
/* ------------------------------------------------------------------ */

/* drain(heap, until, clamp, stopproc) -> int
 *   0: queue drained empty
 *   1: next event lies beyond `until` (clock clamped to until if clamp)
 *   2: stopproc._scheduled became true
 * Mirrors Engine.run / Engine.run_until_complete fast paths. */
static PyObject *
simcore_drain(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "drain(heap, until, clamp, stopproc)");
        return NULL;
    }
    if (Py_TYPE(args[0]) != &HeapType) {
        PyErr_SetString(PyExc_TypeError, "drain() needs a C EventHeap");
        return NULL;
    }
    Heap *heap = (Heap *)args[0];
    double until = PyFloat_AsDouble(args[1]);
    if (until == -1.0 && PyErr_Occurred())
        return NULL;
    int clamp = PyObject_IsTrue(args[2]);
    if (clamp < 0)
        return NULL;
    EventObj *stopproc = NULL;
    if (args[3] != Py_None) {
        if (!PyObject_TypeCheck(args[3], &ProcessType)) {
            PyErr_SetString(PyExc_TypeError, "drain() stopproc: a Process");
            return NULL;
        }
        stopproc = (EventObj *)args[3];
    }

    for (;;) {
        if (stopproc != NULL && stopproc->scheduled)
            return PyLong_FromLong(2);
        if (heap->size == 0)
            return PyLong_FromLong(0);
        if (heap->arr[0].when > until) {
            if (clamp)
                heap->now = until;
            return PyLong_FromLong(1);
        }
        Entry e;
        heap_extract(heap, &e);
        PyObject *event = e.item; /* we own this ref */
        PyObject **slot = waiters_slot(event);
        if (slot == NULL) {
            raise_simerror("%R was scheduled, not an Event", event, NULL);
            Py_DECREF(event);
            return NULL;
        }
        PyObject *cbs = *slot;
        if (cbs == Py_None) {
            raise_simerror("%R dispatched twice", event, NULL);
            Py_DECREF(event);
            return NULL;
        }
        *slot = Py_NewRef(Py_None); /* we own the old list (or NULL) */
        if (cbs != NULL && PyList_GET_SIZE(cbs) > 0) {
            int rc = run_callbacks(cbs, event);
            Py_DECREF(cbs);
            Py_DECREF(event);
            if (rc < 0)
                return NULL;
            continue;
        }
        Py_XDECREF(cbs);
        /* Failed process with nobody watching: escalate unless defused.
         * (A Timeout is always ok.) */
        if (PyObject_TypeCheck(event, &ProcessType)) {
            ProcessObj *p = (ProcessObj *)event;
            if (p->ev.ok == 0 && !p->defused) {
                PyObject *exc = Py_NewRef(p->ev.value);
                Py_DECREF(event);
                PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
                Py_DECREF(exc);
                return NULL;
            }
        }
        Py_DECREF(event);
    }
}

/* ------------------------------------------------------------------ */
/* The message path of repro.core.transport                            */
/* ------------------------------------------------------------------ */

/* Every message of a run goes through the four steps below; each is the
 * statement-for-statement mirror of the Python code of the same name in
 * core/transport.py, which REPRO_PURE_PY=1 runs instead:
 *
 *   post(fabric, ...)      TransportFabric._post: the send side;
 *   Leg                    _Leg: the arrival step, the wire timer's callback;
 *   accept(endpoint, msg)  Endpoint._accept: spawn the handler process;
 *   Handler                Endpoint._handle: the handler process itself.
 *
 * An RPC attempt is posted by request(endpoint, ...) (Endpoint.request);
 * its deadline waits in a DeadlineQueue (_DeadlineQueue).
 *
 * Endpoints, the fabric, its accounting, network and fault seams stay
 * Python objects: they are read and bumped through their attributes, so
 * every reader sees the same Python values on both legs. */

static PyObject *g_interrupt_func; /* the kernel's Process.interrupt */
static PyObject *g_interrupt_cls;  /* Interrupt */
static PyObject *g_comm_error;     /* CommunicationError */
static PyObject *g_expired;        /* _EXPIRED: settled by its deadline */
static PyObject *g_zero, *g_one, *g_128;

/* An attribute of the Python objects the message path reads and bumps.
 * Their classes must keep these in __slots__: configure_transport() records
 * each slot's offset, so the hot path reads and writes it in place, as the
 * specialised bytecode of the mirror does.  An object of any other type (a
 * subclass, a stand-in) goes through getattr / setattr. */
typedef struct {
    const char *text;
    int owner;            /* index into configure_transport()'s classes */
    PyObject *name;       /* interned text */
    PyTypeObject *type;   /* the owner class, once its slot is found */
    Py_ssize_t offset;
} Attr;

enum { FABRIC, ENDPOINT, ACCOUNTING, PARAMS, NETWORK, ENGINE, N_OWNERS };

static Attr A_engine = {"engine", FABRIC};
static Attr A_network = {"network", FABRIC};
static Attr A_params = {"params", FABRIC};
static Attr A_accounting = {"accounting", FABRIC};
static Attr A__endpoints = {"_endpoints", FABRIC};
static Attr A__msg_ids = {"_msg_ids", FABRIC};
static Attr A__deadline_queues = {"_deadline_queues", FABRIC};
static Attr A_fabric = {"fabric", ENDPOINT};
static Attr A_name = {"name", ENDPOINT};
static Attr A_host_name = {"host_name", ENDPOINT};
static Attr A_faults = {"faults", ENDPOINT};
static Attr A_deadlines = {"deadlines", ENDPOINT};
static Attr A__handlers = {"_handlers", ENDPOINT};
static Attr A__inflight = {"_inflight", ENDPOINT};
static Attr A__spawned = {"_spawned", ENDPOINT};
static Attr A__backlog = {"_backlog", ENDPOINT};
static Attr A__closed = {"_closed", ENDPOINT};
static Attr A_messages_sent = {"messages_sent", ACCOUNTING};
static Attr A_bytes_sent = {"bytes_sent", ACCOUNTING};
static Attr A_messages_by_op = {"messages_by_op", ACCOUNTING};
static Attr A_messages_dropped = {"messages_dropped", ACCOUNTING};
static Attr A_dead_letters = {"dead_letters", ACCOUNTING};
static Attr A_replies_suppressed = {"replies_suppressed", ACCOUNTING};
static Attr A_control_payload = {"control_payload", PARAMS};
static Attr A_marshal_fixed = {"marshal_fixed", PARAMS};
static Attr A_marshal_per_byte = {"marshal_per_byte", PARAMS};
static Attr A_dispatch_fixed = {"dispatch_fixed", PARAMS};
static Attr A__route_info = {"_route_info", NETWORK};
static Attr A_bytes_total = {"bytes_total", NETWORK};
static Attr A_bytes_wan = {"bytes_wan", NETWORK};
static Attr A__queue = {"_queue", ENGINE};

static Attr *g_attrs[] = {
    &A_engine, &A_network, &A_params, &A_accounting, &A__endpoints,
    &A__msg_ids, &A__deadline_queues, &A_fabric, &A_name, &A_host_name,
    &A_faults, &A_deadlines, &A__handlers,
    &A__inflight, &A__spawned, &A__backlog, &A__closed, &A_messages_sent,
    &A_bytes_sent, &A_messages_by_op, &A_messages_dropped, &A_dead_letters,
    &A_replies_suppressed, &A_control_payload, &A_marshal_fixed,
    &A_marshal_per_byte, &A_dispatch_fixed, &A__route_info, &A_bytes_total,
    &A_bytes_wan, &A__queue, NULL,
};

/* Method names and constant strings. */
static PyObject *S_strike, *S_send, *S_deliver, *S_add, *S__dead_letter,
    *S_wire_time, *S_ok, *S_error, *S_get, *S_deadline, *S__deadline_queue;

/* getattr(obj, a.name), a new reference. */
static PyObject *
get(PyObject *obj, const Attr *a)
{
    if (Py_TYPE(obj) == a->type) {
        PyObject *v = *(PyObject **)((char *)obj + a->offset);
        if (v != NULL)
            return Py_NewRef(v);
    }
    return PyObject_GetAttr(obj, a->name);
}

/* setattr(obj, a.name, v) */
static int
set(PyObject *obj, const Attr *a, PyObject *v)
{
    if (Py_TYPE(obj) == a->type) {
        Py_XSETREF(*(PyObject **)((char *)obj + a->offset), Py_NewRef(v));
        return 0;
    }
    return PyObject_SetAttr(obj, a->name, v);
}

/* Find the slot of every Attr in its owner class: a TypeError names an
 * attribute that its class does not keep in __slots__. */
static int
find_slots(PyObject *classes)
{
    if (!PyTuple_Check(classes) || PyTuple_GET_SIZE(classes) != N_OWNERS) {
        PyErr_SetString(PyExc_TypeError, "configure_transport() needs the "
                        "fabric, endpoint, accounting, params, network and "
                        "engine classes");
        return -1;
    }
    for (Attr **it = g_attrs; *it != NULL; it++) {
        Attr *a = *it;
        PyObject *cls = PyTuple_GET_ITEM(classes, a->owner);
        PyObject *descr = PyType_Check(cls) ? PyObject_GetAttr(cls, a->name)
                                            : NULL;
        PyMemberDef *member = NULL;
        if (descr != NULL && Py_IS_TYPE(descr, &PyMemberDescr_Type))
            member = ((PyMemberDescrObject *)descr)->d_member;
        Py_XDECREF(descr);
        if (member == NULL || member->type != T_OBJECT_EX ||
            (member->flags & READONLY)) {
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError, "%R.%U is not a slot", cls, a->name);
            return -1;
        }
        Py_XSETREF(a->type, (PyTypeObject *)Py_NewRef(cls));
        a->offset = member->offset;
    }
    return 0;
}

/* getattr(obj, a.name) as a double. */
static int
attr_double(PyObject *obj, const Attr *a, double *out)
{
    PyObject *v = get(obj, a);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* params.marshal_fixed + params.marshal_per_byte * nbytes, rounded as
 * Python rounds it: the product on its own, never fused with the sum into
 * one multiply-add. */
static int
marshal_time(PyObject *params, PyObject *nbytes, double *out)
{
    double fixed, per_byte, n = PyFloat_AsDouble(nbytes);
    if ((n == -1.0 && PyErr_Occurred()) ||
        attr_double(params, &A_marshal_fixed, &fixed) < 0 ||
        attr_double(params, &A_marshal_per_byte, &per_byte) < 0)
        return -1;
    volatile double product = per_byte * n;
    *out = fixed + product;
    return 0;
}

/* bool(getattr(obj, a.name)): 1, 0 or -1. */
static int
attr_true(PyObject *obj, const Attr *a)
{
    PyObject *v = get(obj, a);
    if (v == NULL)
        return -1;
    int truth = PyObject_IsTrue(v);
    Py_DECREF(v);
    return truth;
}

/* obj.<a.name> += delta */
static int
bump(PyObject *obj, const Attr *a, PyObject *delta)
{
    PyObject *old = get(obj, a);
    if (old == NULL)
        return -1;
    PyObject *sum = PyNumber_InPlaceAdd(old, delta);
    Py_DECREF(old);
    if (sum == NULL)
        return -1;
    int rc = set(obj, a, sum);
    Py_DECREF(sum);
    return rc;
}

/* fabric.accounting.<a.name> += 1 */
static int
bump_accounting(PyObject *fabric, const Attr *a)
{
    PyObject *acct = get(fabric, &A_accounting);
    if (acct == NULL)
        return -1;
    int rc = bump(acct, a, g_one);
    Py_DECREF(acct);
    return rc;
}

/* Mirror of Accounting.count: one marshalled message of `nbytes`. */
static int
count_message(PyObject *fabric, PyObject *op, PyObject *nbytes)
{
    PyObject *acct = get(fabric, &A_accounting);
    if (acct == NULL)
        return -1;
    int rc = -1;
    PyObject *by_op = NULL, *n = NULL;
    if (bump(acct, &A_messages_sent, g_one) < 0 ||
        bump(acct, &A_bytes_sent, nbytes) < 0 ||
        (by_op = get(acct, &A_messages_by_op)) == NULL)
        goto done;
    if (!PyDict_Check(by_op)) {
        PyErr_SetString(PyExc_TypeError, "messages_by_op must be a dict");
        goto done;
    }
    PyObject *seen = PyDict_GetItemWithError(by_op, op);
    if (seen == NULL && PyErr_Occurred())
        goto done;
    n = PyNumber_Add(seen ? seen : g_zero, g_one);
    if (n != NULL)
        rc = PyDict_SetItem(by_op, op, n);
done:
    Py_XDECREF(n);
    Py_XDECREF(by_op);
    Py_DECREF(acct);
    return rc;
}

/* Mirror of Network.wire_time: count the bytes of a transfer between two
 * hosts and give its duration.  A route not measured yet is left to the
 * Python method, which measures it into the same cache. */
static int
wire_time(PyObject *fabric, PyObject *src_host, PyObject *dst_host,
          PyObject *nbytes, double *wire)
{
    PyObject *network = get(fabric, &A_network);
    if (network == NULL)
        return -1;
    int rc = -1;
    PyObject *routes = NULL, *key = NULL;
    if ((routes = get(network, &A__route_info)) == NULL ||
        (key = PyTuple_Pack(2, src_host, dst_host)) == NULL)
        goto done;
    PyObject *info = PyDict_Check(routes)
                         ? PyDict_GetItemWithError(routes, key) : NULL;
    if (info == NULL) {
        if (PyErr_Occurred())
            goto done;
        PyObject *w = PyObject_CallMethodObjArgs(network, S_wire_time, src_host,
                                                 dst_host, nbytes, NULL);
        if (w == NULL)
            goto done;
        *wire = PyFloat_AsDouble(w);
        Py_DECREF(w);
        rc = (*wire == -1.0 && PyErr_Occurred()) ? -1 : 0;
        goto done;
    }
    if (!PyTuple_Check(info) || PyTuple_GET_SIZE(info) != 3) {
        PyErr_SetString(PyExc_TypeError, "a route's metrics are a 3-tuple");
        goto done;
    }
    double latency = PyFloat_AsDouble(PyTuple_GET_ITEM(info, 0));
    double bottleneck = PyFloat_AsDouble(PyTuple_GET_ITEM(info, 1));
    int wan = PyObject_IsTrue(PyTuple_GET_ITEM(info, 2));
    if (PyErr_Occurred() || wan < 0)
        goto done;
    if (bottleneck == 0.0) { /* empty self-route */
        *wire = 0.0;
        rc = 0;
        goto done;
    }
    if (bump(network, &A_bytes_total, nbytes) < 0 ||
        (wan && bump(network, &A_bytes_wan, nbytes) < 0))
        goto done;
    double n = PyFloat_AsDouble(nbytes);
    if (n == -1.0 && PyErr_Occurred())
        goto done;
    *wire = latency + n / bottleneck;
    rc = 0;
done:
    Py_XDECREF(key);
    Py_XDECREF(routes);
    Py_DECREF(network);
    return rc;
}

/* fabric._dead_letter(msg, reason) */
static int
dead_letter(PyObject *fabric, PyObject *msg, PyObject *reason)
{
    if (reason == NULL)
        return -1;
    PyObject *r = PyObject_CallMethodObjArgs(fabric, S__dead_letter, msg,
                                             reason, NULL);
    Py_DECREF(reason);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* A reply token's `triggered` and `value`: the fields of a C event. */
static int
token_triggered(PyObject *token)
{
    if (PyObject_TypeCheck(token, &EventType))
        return ((EventObj *)token)->scheduled;
    PyErr_SetString(PyExc_TypeError, "a reply token must be an Event");
    return -1;
}

static int
token_expired(PyObject *token)
{
    return ((EventObj *)token)->value == g_expired;
}

/* ---- DeadlineQueue: transport._DeadlineQueue ------------------------ */

/* The pending deadlines of a fabric's RPCs that share one deadline length,
 * expired by one armed timer.  Attempts join in send order, which is expiry
 * order, so the head of `pending` (a dict: reply token -> expiry instant,
 * in insertion order) is always the next to expire.  The timer is armed at
 * the head's expiry while anything is pending, re-armed at the new head
 * when it fires for one answered meanwhile, and taken off the heap when the
 * queue empties.  The queue is a callback of every token it holds: the
 * token's dispatch discards its attempt. */
struct DeadlineObj {
    PyObject_HEAD
    PyObject *engine;
    Heap *heap;        /* engine._queue */
    PyObject *pending; /* dict: reply token -> expiry instant */
    PyObject *timer;   /* the armed timer, or NULL */
    double deadline;
};

static PyObject *S__expire_due;

/* Mirror of _DeadlineQueue._arm: a timer at `when`, expiring the due. */
static int
dq_arm(DeadlineObj *q, double when)
{
    PyObject *timer = timeout_at(q->heap, when), *waiters, *expire = NULL;
    if (timer == NULL)
        return -1;
    Py_XSETREF(q->timer, timer);
    if ((waiters = timeout_waiters((TimeoutObj *)timer)) == NULL ||
        (expire = PyObject_GetAttr((PyObject *)q, S__expire_due)) == NULL ||
        PyList_Append(waiters, expire) < 0) {
        Py_XDECREF(expire);
        return -1;
    }
    Py_DECREF(expire);
    return 0;
}

/* Mirror of _DeadlineQueue.add: the deadline of the attempt `reply`
 * answers starts now. */
static int
dq_add(DeadlineObj *q, PyObject *reply)
{
    double expires = q->heap->now + q->deadline;
    PyObject *at = PyFloat_FromDouble(expires);
    int rc = at == NULL ? -1 : PyDict_SetItem(q->pending, reply, at);
    Py_XDECREF(at);
    if (rc < 0)
        return -1;
    PyObject **slot = waiters_slot(reply), *waiters;
    if (slot == NULL || *slot == Py_None) {
        PyErr_Format(PyExc_TypeError, "a deadline needs a pending reply "
                     "token, not %R", reply);
        return -1;
    }
    waiters = Py_TYPE(reply) == &TimeoutType
                  ? timeout_waiters((TimeoutObj *)reply)
                  : event_waiters((EventObj *)reply);
    if (waiters == NULL || PyList_Append(waiters, (PyObject *)q) < 0)
        return -1;
    return q->timer == NULL ? dq_arm(q, expires) : 0;
}

/* Mirror of _DeadlineQueue.discard: the attempt is over. */
static int
dq_discard(DeadlineObj *q, PyObject *reply)
{
    PyObject *at = PyDict_GetItemWithError(q->pending, reply);
    if (at == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (PyDict_DelItem(q->pending, reply) < 0)
        return -1;
    if (PyDict_GET_SIZE(q->pending) == 0 && q->timer != NULL) {
        if (heap_remove_item(q->heap, q->timer) < 0)
            return -1;
        Py_CLEAR(q->timer);
    }
    return 0;
}

/* Mirror of _DeadlineQueue._expire_due: the timer fired.  Every attempt
 * due by now is expired, in send order; the timer re-arms at the first
 * one that is not. */
static int
dq_expire_due(DeadlineObj *q)
{
    Py_CLEAR(q->timer);
    double now = q->heap->now;
    Py_ssize_t pos = 0;
    PyObject *reply, *at;
    /* Deleting the entry just visited leaves the positions of the rest as
     * they are, and settling a C event runs no Python code. */
    while (PyDict_Next(q->pending, &pos, &reply, &at)) {
        double expires = PyFloat_AsDouble(at);
        if (expires == -1.0 && PyErr_Occurred())
            return -1;
        if (expires > now)
            return dq_arm(q, expires);
        Py_INCREF(reply);
        int rc = PyDict_DelItem(q->pending, reply);
        if (rc == 0 && !PyObject_TypeCheck(reply, &EventType)) {
            PyErr_Format(PyExc_TypeError, "a reply token must be an Event, "
                         "not %R", reply);
            rc = -1;
        }
        if (rc == 0 && !((EventObj *)reply)->scheduled) {
            PyObject *r = event_trigger((EventObj *)reply, 1, g_expired, 1);
            rc = r == NULL ? -1 : 0;
            Py_XDECREF(r);
        }
        Py_DECREF(reply);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* add(reply) / discard(reply) / _expire_due(timer) from Python, and the
 * queue called as a token's callback: discard. */
static PyObject *
dq_py_add(DeadlineObj *q, PyObject *reply)
{
    return dq_add(q, reply) < 0 ? NULL : Py_NewRef(Py_None);
}

static PyObject *
dq_py_discard(DeadlineObj *q, PyObject *reply)
{
    return dq_discard(q, reply) < 0 ? NULL : Py_NewRef(Py_None);
}

static PyObject *
dq_py_expire_due(DeadlineObj *q, PyObject *timer)
{
    return dq_expire_due(q) < 0 ? NULL : Py_NewRef(Py_None);
}

static PyObject *
dq_call(DeadlineObj *q, PyObject *args, PyObject *kwds)
{
    PyObject *reply;
    if ((kwds != NULL && PyDict_GET_SIZE(kwds) > 0) ||
        !PyArg_UnpackTuple(args, "DeadlineQueue", 1, 1, &reply)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "a deadline queue takes no "
                            "keywords");
        return NULL;
    }
    return dq_py_discard(q, reply);
}

/* _DeadlineQueue(engine, deadline) */
static PyObject *
dq_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", "deadline", NULL};
    PyObject *engine;
    double deadline;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Od:DeadlineQueue", kwlist,
                                     &engine, &deadline))
        return NULL;
    PyObject *queue = Py_TYPE(engine) == &HeapType
                          ? Py_NewRef(engine)
                          : PyObject_GetAttr(engine, str__queue);
    if (queue == NULL)
        return NULL;
    if (Py_TYPE(queue) != &HeapType) {
        Py_DECREF(queue);
        PyErr_SetString(PyExc_TypeError,
                        "a C deadline queue needs the C EventHeap");
        return NULL;
    }
    DeadlineObj *q = (DeadlineObj *)type->tp_alloc(type, 0);
    if (q == NULL || (q->pending = PyDict_New()) == NULL) {
        Py_XDECREF(q);
        Py_DECREF(queue);
        return NULL;
    }
    q->engine = Py_NewRef(engine);
    q->heap = (Heap *)queue;
    q->deadline = deadline;
    return (PyObject *)q;
}

static PyObject *
dq_get_timer(DeadlineObj *q, void *closure)
{
    return Py_NewRef(q->timer ? q->timer : Py_None);
}

static int
dq_traverse(DeadlineObj *q, visitproc visit, void *arg)
{
    Py_VISIT(q->engine);
    Py_VISIT(q->heap);
    Py_VISIT(q->pending);
    Py_VISIT(q->timer);
    return 0;
}

static int
dq_clear(DeadlineObj *q)
{
    Py_CLEAR(q->engine);
    Py_CLEAR(q->heap);
    Py_CLEAR(q->pending);
    Py_CLEAR(q->timer);
    return 0;
}

static void
dq_dealloc(DeadlineObj *q)
{
    PyObject_GC_UnTrack(q);
    dq_clear(q);
    Py_TYPE(q)->tp_free((PyObject *)q);
}

static PyMethodDef dq_methods[] = {
    {"add", (PyCFunction)dq_py_add, METH_O,
     "add(reply): start the deadline of the attempt reply answers"},
    {"discard", (PyCFunction)dq_py_discard, METH_O,
     "discard(reply): the attempt is over (answered, expired or abandoned)"},
    {"_expire_due", (PyCFunction)dq_py_expire_due, METH_O,
     "_expire_due(timer): the timer fired; expire every attempt due"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef dq_members[] = {
    {"engine", T_OBJECT, offsetof(DeadlineObj, engine), READONLY,
     "the Engine"},
    {"deadline", T_DOUBLE, offsetof(DeadlineObj, deadline), READONLY,
     "the deadline length, s"},
    {"_pending", T_OBJECT, offsetof(DeadlineObj, pending), READONLY,
     "reply token -> its expiry instant, in send (== expiry) order"},
    {NULL},
};

static PyGetSetDef dq_getset[] = {
    {"_timer", (getter)dq_get_timer, NULL, "the armed timer, or None", NULL},
    {NULL},
};

static PyTypeObject DeadlineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_simcore.DeadlineQueue",
    .tp_doc = "The pending RPC deadlines of one length (C mirror of "
              "transport._DeadlineQueue)",
    .tp_basicsize = sizeof(DeadlineObj),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = dq_new,
    .tp_call = (ternaryfunc)dq_call,
    .tp_dealloc = (destructor)dq_dealloc,
    .tp_traverse = (traverseproc)dq_traverse,
    .tp_clear = (inquiry)dq_clear,
    .tp_methods = dq_methods,
    .tp_members = dq_members,
    .tp_getset = dq_getset,
};

/* deadline.add(reply): the C queue directly, any other through its method
 * (a test's stand-in). */
static int
deadline_add(PyObject *deadline, PyObject *reply)
{
    if (Py_IS_TYPE(deadline, &DeadlineType))
        return dq_add((DeadlineObj *)deadline, reply);
    PyObject *r = PyObject_CallMethodOneArg(deadline, S_add, reply);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* ---- Message -------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *msg_id, *src, *dst, *op, *payload, *nbytes, *reply_to, *sent_at;
} MessageObj;

static PyTypeObject MessageType;

static PyObject *
message_create(PyObject *msg_id, PyObject *src, PyObject *dst, PyObject *op,
               PyObject *payload, PyObject *nbytes, PyObject *reply_to,
               PyObject *sent_at)
{
    MessageObj *m = PyObject_GC_New(MessageObj, &MessageType);
    if (m == NULL)
        return NULL;
    m->msg_id = Py_NewRef(msg_id);
    m->src = Py_NewRef(src);
    m->dst = Py_NewRef(dst);
    m->op = Py_NewRef(op);
    m->payload = Py_NewRef(payload);
    m->nbytes = Py_NewRef(nbytes);
    m->reply_to = Py_NewRef(reply_to);
    m->sent_at = Py_NewRef(sent_at);
    PyObject_GC_Track(m);
    return (PyObject *)m;
}

static PyObject *
message_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"msg_id", "src", "dst", "op", "payload",
                             "nbytes", "reply_to", "sent_at", NULL};
    PyObject *msg_id, *src, *dst, *op, *payload = Py_None, *reply_to = Py_None;
    PyObject *nbytes = NULL, *sent_at = NULL, *m = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOO|OOOO:Message", kwlist,
                                     &msg_id, &src, &dst, &op, &payload,
                                     &nbytes, &reply_to, &sent_at))
        return NULL;
    PyObject *zero = NULL, *start = NULL;
    if (nbytes == NULL && (nbytes = zero = PyLong_FromLong(0)) == NULL)
        return NULL;
    if (sent_at == NULL && (sent_at = start = PyFloat_FromDouble(0.0)) == NULL)
        goto done;
    m = message_create(msg_id, src, dst, op, payload, nbytes, reply_to,
                       sent_at);
done:
    Py_XDECREF(zero);
    Py_XDECREF(start);
    return m;
}

static int
message_traverse(MessageObj *m, visitproc visit, void *arg)
{
    Py_VISIT(m->msg_id);
    Py_VISIT(m->src);
    Py_VISIT(m->dst);
    Py_VISIT(m->op);
    Py_VISIT(m->payload);
    Py_VISIT(m->nbytes);
    Py_VISIT(m->reply_to);
    Py_VISIT(m->sent_at);
    return 0;
}

static int
message_clear(MessageObj *m)
{
    Py_CLEAR(m->msg_id);
    Py_CLEAR(m->src);
    Py_CLEAR(m->dst);
    Py_CLEAR(m->op);
    Py_CLEAR(m->payload);
    Py_CLEAR(m->nbytes);
    Py_CLEAR(m->reply_to);
    Py_CLEAR(m->sent_at);
    return 0;
}

static void
message_dealloc(MessageObj *m)
{
    PyObject_GC_UnTrack(m);
    message_clear(m);
    Py_TYPE(m)->tp_free((PyObject *)m);
}

static PyObject *
message_repr(MessageObj *m)
{
    int busy = Py_ReprEnter((PyObject *)m);
    if (busy != 0)
        return busy > 0 ? PyUnicode_FromString("...") : NULL;
    PyObject *r = PyUnicode_FromFormat(
        "Message(msg_id=%R, src=%R, dst=%R, op=%R, payload=%R, nbytes=%R, "
        "reply_to=%R, sent_at=%R)", m->msg_id, m->src, m->dst, m->op,
        m->payload, m->nbytes, m->reply_to, m->sent_at);
    Py_ReprLeave((PyObject *)m);
    return r;
}

#define MESSAGE_FIELD(field, doc) \
    {#field, T_OBJECT_EX, offsetof(MessageObj, field), 0, doc}

static PyMemberDef message_members[] = {
    MESSAGE_FIELD(msg_id, "fabric-scoped message number"),
    MESSAGE_FIELD(src, "sender endpoint name"),
    MESSAGE_FIELD(dst, "destination endpoint name"),
    MESSAGE_FIELD(op, "operation name"),
    MESSAGE_FIELD(payload, "the operation's argument"),
    MESSAGE_FIELD(nbytes, "bytes on the wire"),
    MESSAGE_FIELD(reply_to, "an RPC's reply token; None one-way"),
    MESSAGE_FIELD(sent_at, "simulated send instant"),
    {NULL},
};

static PyTypeObject MessageType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_simcore.Message",
    .tp_doc = "One transported message (C mirror of transport.Message)",
    .tp_basicsize = sizeof(MessageObj),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = message_new,
    .tp_dealloc = (destructor)message_dealloc,
    .tp_traverse = (traverseproc)message_traverse,
    .tp_clear = (inquiry)message_clear,
    .tp_repr = (reprfunc)message_repr,
    .tp_members = message_members,
};

/* ---- Handler: Endpoint._accept + Endpoint._handle ------------------- */

/* Where the handler process is: paying its dispatch charge, waiting out a
 * deliver-point delay, running the application handler, then the reply
 * leg's marshal and wire.  Only H_BOOT is "not booted" (stop() leaves such
 * a handler to boot and dead-letter on its own). */
enum { H_BOOT, H_DELAY, H_RUN, H_MARSHAL, H_WIRE, H_DONE };

typedef struct {
    ProcessObj proc;     /* generator: the application handler's, once run */
    PyObject *endpoint;
    PyObject *msg;       /* a MessageObj */
    PyObject *handler;   /* the op's handler; NULL when it has none */
    PyObject *key;       /* spawn number: the endpoint's _inflight key */
    PyObject *heap;      /* the engine's EventHeap */
    PyObject *status;    /* the reply: "ok" or "error", */
    PyObject *value;     /* its value */
    PyObject *nbytes;    /* and its size */
    int state;
} HandlerObj;

#define H_MSG(h) ((MessageObj *)(h)->msg)

/* Name "{endpoint}:{op}#{msg_id}", built on first read. */
static PyObject *
handler_get_name(HandlerObj *h, void *closure)
{
    ProcessObj *p = &h->proc;
    if (p->name == NULL) {
        PyObject *ep = get(h->endpoint, &A_name);
        if (ep == NULL)
            return NULL;
        p->name = PyUnicode_FromFormat("%S:%S#%S", ep, H_MSG(h)->op,
                                       H_MSG(h)->msg_id);
        Py_DECREF(ep);
        if (p->name == NULL)
            return NULL;
    }
    return Py_NewRef(p->name);
}

static int
handler_set_name(HandlerObj *h, PyObject *v, void *closure)
{
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete a process name");
        return -1;
    }
    Py_XSETREF(h->proc.name, Py_NewRef(v));
    return 0;
}

static PyObject *
process_name(ProcessObj *p)
{
    if (Py_IS_TYPE(p, &HandlerType))
        return handler_get_name((HandlerObj *)p, NULL);
    return Py_NewRef(p->name ? p->name : Py_None);
}

/* fabric of the handler's endpoint (a new reference). */
static PyObject *
h_fabric(HandlerObj *h)
{
    return get(h->endpoint, &A_fabric);
}

/* fabric.accounting.<a.name> += 1 */
static int
h_bump(HandlerObj *h, const Attr *a)
{
    PyObject *fabric = h_fabric(h);
    int rc = fabric ? bump_accounting(fabric, a) : -1;
    Py_XDECREF(fabric);
    return rc;
}

/* Mirror of the `finally:` clause: self._inflight.pop(key, None).  Keeps a
 * pending exception as it is. */
static int
h_pop_inflight(HandlerObj *h)
{
    PyObject *etype, *evalue, *etb;
    PyErr_Fetch(&etype, &evalue, &etb);
    int rc = -1;
    PyObject *inflight = get(h->endpoint, &A__inflight);
    if (inflight != NULL) {
        if (PyDict_Check(inflight)) {
            rc = PyDict_DelItem(inflight, h->key);
            if (rc < 0 && PyErr_ExceptionMatches(PyExc_KeyError)) {
                PyErr_Clear();
                rc = 0;
            }
        } else {
            PyErr_SetString(PyExc_TypeError, "_inflight must be a dict");
        }
        Py_DECREF(inflight);
    }
    if (etype != NULL) {
        if (rc < 0)
            PyErr_Clear();
        PyErr_Restore(etype, evalue, etb);
        return -1;
    }
    return rc;
}

/* The handler process returned: settle it in place. */
static int
h_done(HandlerObj *h)
{
    h->state = H_DONE;
    Py_CLEAR(h->value);
    Py_CLEAR(h->proc.generator);
    return c_finish(&h->proc, 1, Py_None);
}

/* The handler process raised outside any handling: fail it. */
static int
h_fail(HandlerObj *h)
{
    h->state = H_DONE;
    Py_CLEAR(h->proc.generator);
    return c_fail_raised(&h->proc);
}

/* A pending interrupt thrown where the Python handler has no `try`: at
 * its boot, or in the reply leg.  It fails the process. */
static int
h_fail_interrupt(HandlerObj *h)
{
    PyObject *intrs = h->proc.interrupts;
    PyObject *intr = Py_NewRef(PyList_GET_ITEM(intrs, 0));
    if (PyList_SetSlice(intrs, 0, 1, NULL) < 0) {
        Py_DECREF(intr);
        return -1;
    }
    PyErr_SetObject((PyObject *)Py_TYPE(intr), intr);
    Py_DECREF(intr);
    return h_fail(h);
}

/* Push a Timeout(delay) on the handler's heap and wait on it in `state`. */
static int
h_wait(HandlerObj *h, double delay, int state)
{
    PyObject *t = timeout_create(h->heap, delay, Py_None, 1);
    if (t == NULL)
        return -1;
    PyObject *waiters = timeout_waiters((TimeoutObj *)t);
    if (waiters == NULL || PyList_Append(waiters, (PyObject *)h) < 0) {
        Py_DECREF(t);
        return -1;
    }
    Py_XSETREF(h->proc.target, t);
    h->state = state;
    return 0;
}

/* except Interrupt: the endpoint stopped under the handler. */
static int
h_stopped(HandlerObj *h)
{
    PyObject *fabric = h_fabric(h), *ep = NULL;
    int rc = -1;
    if (fabric != NULL && (ep = get(h->endpoint, &A_name)) != NULL)
        rc = dead_letter(fabric, h->msg, PyUnicode_FromFormat(
            "endpoint %R stopped while handling %R", ep, H_MSG(h)->op));
    Py_XDECREF(ep);
    Py_XDECREF(fabric);
    if (h_pop_inflight(h) < 0)
        return rc < 0 ? h_fail(h) : -1;
    return h_done(h);
}

static int h_reply(HandlerObj *h); /* forward */

/* The reply is (status, value), of `nbytes` (both references stolen): the
 * handler leaves _inflight and the reply leg starts. */
static int
h_reply_with(HandlerObj *h, PyObject *status, PyObject *value,
             PyObject *nbytes)
{
    Py_XSETREF(h->status, Py_NewRef(status));
    Py_XSETREF(h->value, value);
    Py_XSETREF(h->nbytes, nbytes);
    if (h_pop_inflight(h) < 0)
        return -1;
    return h_reply(h);
}

/* An exception raised inside the Python handler's outer `try` (`shipped`:
 * inside the inner one, around the application handler).  An Interrupt
 * dead-letters the message; an application error of an RPC is shipped back
 * as its reply; anything else fails the process. */
static int
h_raised(HandlerObj *h, int shipped)
{
    PyObject *exc = fetch_raised();
    if (exc == NULL) { /* KeyboardInterrupt / SystemExit */
        h_pop_inflight(h);
        return -1;
    }
    Py_CLEAR(h->proc.generator);
    if (PyErr_GivenExceptionMatches(exc, g_interrupt_cls)) {
        Py_DECREF(exc);
        return h_stopped(h);
    }
    if (shipped && H_MSG(h)->reply_to != Py_None &&
        PyErr_GivenExceptionMatches(exc, PyExc_Exception))
        return h_reply_with(h, S_error, exc, Py_NewRef(g_128));
    if (h_pop_inflight(h) < 0) {
        Py_DECREF(exc);
        return -1;
    }
    h->state = H_DONE;
    int rc = c_finish(&h->proc, 0, exc);
    Py_DECREF(exc);
    return rc;
}

/* The application handler returned `result`. */
static int
h_returned(HandlerObj *h, PyObject *result)
{
    PyObject *value = result, *nbytes = Py_None;
    if (H_MSG(h)->reply_to == Py_None) {
        if (h_pop_inflight(h) < 0)
            return -1;
        return h_done(h);
    }
    if (PyTuple_Check(result)) {
        Py_ssize_t n = PyTuple_GET_SIZE(result);
        if (n != 2) {
            if (n > 2)
                PyErr_SetString(PyExc_ValueError,
                                "too many values to unpack (expected 2)");
            else
                PyErr_Format(PyExc_ValueError, "not enough values to unpack "
                             "(expected 2, got %zd)", n);
            return h_raised(h, 0);
        }
        value = PyTuple_GET_ITEM(result, 0);
        nbytes = PyTuple_GET_ITEM(result, 1);
    }
    if (nbytes == Py_None) {
        PyObject *fabric = h_fabric(h), *params = NULL;
        if (fabric != NULL && (params = get(fabric, &A_params)))
            nbytes = get(params, &A_control_payload);
        else
            nbytes = NULL;
        Py_XDECREF(params);
        Py_XDECREF(fabric);
        if (nbytes == NULL)
            return h_raised(h, 0);
    } else {
        Py_INCREF(nbytes);
    }
    return h_reply_with(h, S_ok, Py_NewRef(value), nbytes);
}

/* Run the application generator from the wake-up `event` (NULL: start it)
 * to its next wait, its return or its exception. */
static int
h_run(HandlerObj *h, PyObject *event)
{
    ProcessObj *p = &h->proc;
    int result = -1;
    PyObject *out;
    Py_XINCREF(event);
    for (;;) {
        int rc = gen_advance(p, event, &out);
        if (rc == 1) {
            int sub = c_subscribe(p, out);
            if (sub == 1) {
                Py_XSETREF(event, out);
                continue;
            }
            if (sub < 0)
                Py_DECREF(out);
            else
                result = 0;
        } else if (rc == 0) {
            Py_CLEAR(p->generator);
            result = h_returned(h, out);
            Py_DECREF(out);
        } else if (rc == -1) {
            result = h_raised(h, 1);
        }
        break;
    }
    Py_XDECREF(event);
    return result;
}

/* `yield from handler(msg)`: make the application generator and run it. */
static int
h_start(HandlerObj *h)
{
    h->state = H_RUN;
    PyObject *gen = PyObject_CallOneArg(h->handler, h->msg);
    if (gen != NULL && !PyGen_Check(gen)) {
        Py_SETREF(gen, PyObject_GetIter(gen));
    }
    if (gen == NULL)
        return h_raised(h, 1);
    Py_XSETREF(h->proc.generator, gen);
    return h_run(h, NULL);
}

/* The end of the dispatch charge. */
static int
h_boot(HandlerObj *h)
{
    MessageObj *msg = H_MSG(h);
    int closed = attr_true(h->endpoint, &A__closed);
    if (closed < 0)
        return h_raised(h, 0);
    if (closed)
        /* The endpoint stopped while this handler paid its dispatch
         * charge: it boots anyway, and dies mid-request here. */
        return h_stopped(h);
    if (h->handler == NULL) {
        if (msg->reply_to == Py_None) {
            /* One-way message nobody will ever process. */
            if (h_bump(h, &A_dead_letters) < 0)
                return h_raised(h, 0);
            return h_pop_inflight(h) < 0 ? -1 : h_done(h);
        }
        PyObject *ep = get(h->endpoint, &A_name), *error = NULL;
        if (ep != NULL) {
            PyObject *text = PyUnicode_FromFormat(
                "endpoint %R has no handler for %R", ep, msg->op);
            Py_DECREF(ep);
            if (text != NULL) {
                error = PyObject_CallOneArg(g_comm_error, text);
                Py_DECREF(text);
            }
        }
        if (error == NULL)
            return h_raised(h, 0);
        return h_reply_with(h, S_error, error, Py_NewRef(g_128));
    }
    PyObject *faults = get(h->endpoint, &A_faults);
    if (faults == NULL)
        return h_raised(h, 0);
    if (faults == Py_None) {
        Py_DECREF(faults);
        return h_start(h);
    }
    PyObject *fate = PyObject_CallMethodObjArgs(faults, S_strike, S_deliver,
                                                msg->op, NULL);
    Py_DECREF(faults);
    if (fate == NULL)
        return h_raised(h, 0);
    if (fate == Py_None) {
        Py_DECREF(fate);
        if (h_bump(h, &A_messages_dropped) < 0)
            return h_raised(h, 0);
        return h_pop_inflight(h) < 0 ? -1 : h_done(h);
    }
    PyObject *delay = PySequence_GetItem(fate, 0);
    Py_DECREF(fate);
    int wait = delay ? PyObject_IsTrue(delay) : -1;
    double d = wait > 0 ? PyFloat_AsDouble(delay) : 0.0;
    Py_XDECREF(delay);
    if (wait < 0 || (wait && PyErr_Occurred()) ||
        (wait && h_wait(h, d, H_DELAY) < 0))
        return h_raised(h, 0);
    return wait ? 0 : h_start(h);
}

/* The reply leg's head, once the handler is no longer in flight: a
 * duplicate is suppressed, else the marshal charge starts.  (An error
 * here fails the process: the Python leg runs outside the `try`.) */
static int
h_reply(HandlerObj *h)
{
    PyObject *reply_to = H_MSG(h)->reply_to;
    int triggered = token_triggered(reply_to);
    if (triggered < 0)
        return h_fail(h);
    if (triggered && !token_expired(reply_to))
        return h_bump(h, &A_replies_suppressed) < 0 ? h_fail(h) : h_done(h);
    /* Liveness is decided at the marshal end, so it stays an event. */
    PyObject *fabric = h_fabric(h), *params = NULL;
    double marshal;
    int rc = -1;
    if (fabric != NULL && (params = get(fabric, &A_params)) != NULL &&
        marshal_time(params, h->nbytes, &marshal) == 0)
        rc = h_wait(h, marshal, H_MARSHAL);
    Py_XDECREF(params);
    Py_XDECREF(fabric);
    return rc < 0 ? h_fail(h) : 0;
}

/* The token is answered, unless it was settled meanwhile. */
static int
h_settle(HandlerObj *h)
{
    PyObject *reply_to = H_MSG(h)->reply_to;
    int triggered = token_triggered(reply_to);
    if (triggered < 0)
        return h_fail(h);
    if (!triggered) {
        PyObject *pair = PyTuple_Pack(2, h->status, h->value);
        PyObject *r = pair ? event_trigger((EventObj *)reply_to, 1, pair, 1)
                           : NULL;
        Py_XDECREF(pair);
        if (r == NULL)
            return h_fail(h);
        Py_DECREF(r);
    } else if (!token_expired(reply_to) &&
               h_bump(h, &A_replies_suppressed) < 0) {
        return h_fail(h);
    }
    return h_done(h);
}

/* The marshal end: count, liveness of both ends, then the wire. */
static int
h_marshal_end(HandlerObj *h)
{
    MessageObj *msg = H_MSG(h);
    PyObject *fabric = h_fabric(h), *endpoints = NULL, *caller = NULL;
    PyObject *src_host = NULL, *dst_host = NULL;
    int rc = -1, closed;
    double wire;
    if (fabric == NULL || count_message(fabric, msg->op, h->nbytes) < 0 ||
        (endpoints = get(fabric, &A__endpoints)) == NULL ||
        !PyDict_Check(endpoints))
        goto fail;
    caller = PyDict_GetItemWithError(endpoints, msg->src);
    if (caller == NULL && PyErr_Occurred())
        goto fail;
    Py_XINCREF(caller);
    if ((closed = attr_true(h->endpoint, &A__closed)) < 0)
        goto fail;
    if (!closed) {
        PyObject *self = PyDict_GetItemWithError(endpoints, msg->dst);
        if (self == NULL && PyErr_Occurred())
            goto fail;
        closed = self != h->endpoint;
    }
    if (closed) {
        if (dead_letter(fabric, h->msg, PyUnicode_FromFormat(
                "endpoint %R stopped before its %R reply was sent",
                msg->dst, msg->op)) < 0)
            goto fail;
        rc = 1;
        goto done;
    }
    if (caller == NULL || (closed = attr_true(caller, &A__closed)) != 0) {
        if (closed < 0 || dead_letter(fabric, h->msg, PyUnicode_FromFormat(
                "caller %R unbound before its %R reply arrived",
                msg->src, msg->op)) < 0)
            goto fail;
        rc = 1;
        goto done;
    }
    if ((src_host = get(h->endpoint, &A_host_name)) == NULL ||
        (dst_host = get(caller, &A_host_name)) == NULL ||
        wire_time(fabric, src_host, dst_host, h->nbytes, &wire) < 0)
        goto fail;
    if (wire) {
        if (h_wait(h, wire, H_WIRE) < 0)
            goto fail;
        rc = 0;
    } else {
        rc = 2;
    }
    goto done;
fail:
    rc = -1;
done:
    Py_XDECREF(dst_host);
    Py_XDECREF(src_host);
    Py_XDECREF(caller);
    Py_XDECREF(endpoints);
    Py_XDECREF(fabric);
    if (rc < 0)
        return h_fail(h);
    if (rc == 1)
        return h_done(h);
    if (rc == 2)
        return h_settle(h);
    return 0;
}

/* The handler process's resume: one step of _handle's state machine. */
static int
handler_resume(PyObject *self, PyObject *event)
{
    HandlerObj *h = (HandlerObj *)self;
    PyObject *intrs = h->proc.interrupts;
    int interrupted = intrs != NULL && PyList_Check(intrs) &&
                      PyList_GET_SIZE(intrs) > 0;
    int rc;
    Py_INCREF(self); /* the _inflight entry may be the last other owner */
    switch (h->state) {
    case H_BOOT:
        /* A generator thrown into before it starts runs none of its body:
         * no dead letter, and the _inflight entry stays. */
        rc = interrupted ? h_fail_interrupt(h) : h_boot(h);
        break;
    case H_DELAY:
        /* The Interrupt lands in the `try`: a dead letter. */
        if (interrupted)
            rc = PyList_SetSlice(intrs, 0, 1, NULL) < 0 ? -1 : h_stopped(h);
        else
            rc = h_start(h);
        break;
    case H_RUN:
        rc = h_run(h, event);
        break;
    case H_MARSHAL:
        rc = interrupted ? h_fail_interrupt(h) : h_marshal_end(h);
        break;
    case H_WIRE:
        rc = interrupted ? h_fail_interrupt(h) : h_settle(h);
        break;
    default:
        raise_simerror("handler process %R resumed after it finished",
                       self, NULL);
        rc = -1;
    }
    Py_DECREF(self);
    return rc;
}

/* Mirror of Endpoint._accept: an arrived message gets its handler process,
 * booted at the end of the dispatch charge, or joins the backlog of an
 * endpoint that is bound but not serving yet. */
static int
c_accept(PyObject *endpoint, PyObject *msg)
{
    PyObject *backlog = get(endpoint, &A__backlog);
    if (backlog == NULL)
        return -1;
    if (backlog != Py_None) {
        int rc = PyList_Check(backlog) ? PyList_Append(backlog, msg) : -1;
        if (rc < 0 && !PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_backlog must be a list");
        Py_DECREF(backlog);
        return rc;
    }
    Py_DECREF(backlog);
    PyObject *spawned = NULL, *key = NULL, *handlers = NULL, *handler = NULL,
             *fabric = NULL, *engine = NULL, *queue = NULL, *inflight = NULL,
             *params = NULL;
    HandlerObj *h = NULL;
    int rc = -1;
    double delay = 0.0;
    long prio = 0; /* PRIORITY_URGENT: a message without a handler */
    if ((spawned = get(endpoint, &A__spawned)) == NULL ||
        (key = PyIter_Next(spawned)) == NULL ||
        (handlers = get(endpoint, &A__handlers)) == NULL)
        goto done;
    if (!PyDict_Check(handlers)) {
        PyErr_SetString(PyExc_TypeError, "_handlers must be a dict");
        goto done;
    }
    handler = PyDict_GetItemWithError(handlers, ((MessageObj *)msg)->op);
    if (handler == NULL && PyErr_Occurred())
        goto done;
    Py_XINCREF(handler);
    if ((fabric = get(endpoint, &A_fabric)) == NULL ||
        (engine = get(fabric, &A_engine)) == NULL ||
        (queue = get(engine, &A__queue)) == NULL)
        goto done;
    if (Py_TYPE(queue) != &HeapType) {
        PyErr_SetString(PyExc_TypeError,
                        "a C handler needs an engine on the C EventHeap");
        goto done;
    }
    if (handler != NULL) {
        if ((params = get(fabric, &A_params)) == NULL ||
            attr_double(params, &A_dispatch_fixed, &delay) < 0)
            goto done;
        if (delay < 0.0) {
            PyErr_SetString(PyExc_ValueError, "negative dispatch charge");
            goto done;
        }
        prio = 1;
    }
    h = (HandlerObj *)HandlerType.tp_alloc(&HandlerType, 0);
    if (h == NULL)
        goto done;
    h->proc.ev.engine = Py_NewRef(engine);
    h->proc.ev.ok = -1;
    h->endpoint = Py_NewRef(endpoint);
    h->msg = Py_NewRef(msg);
    h->handler = Py_XNewRef(handler);
    h->key = Py_NewRef(key);
    h->heap = Py_NewRef(queue);
    h->state = H_BOOT;
    Heap *heap = (Heap *)queue;
    PyObject *boot = timeout_alloc(delay, Py_None), *waiters;
    if (boot == NULL)
        goto done;
    h->proc.target = boot;
    if (heap_insert(heap, heap->now + delay, prio, boot) < 0 ||
        (waiters = timeout_waiters((TimeoutObj *)boot)) == NULL ||
        PyList_Append(waiters, (PyObject *)h) < 0 ||
        (inflight = get(endpoint, &A__inflight)) == NULL ||
        PyObject_SetItem(inflight, key, (PyObject *)h) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(h);
    Py_XDECREF(inflight);
    Py_XDECREF(params);
    Py_XDECREF(queue);
    Py_XDECREF(engine);
    Py_XDECREF(fabric);
    Py_XDECREF(handler);
    Py_XDECREF(handlers);
    Py_XDECREF(key);
    Py_XDECREF(spawned);
    return rc;
}

static PyObject *
transport_accept(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    if (g_expired == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "configure_transport() not called");
        return NULL;
    }
    if (nargs != 2 || !Py_IS_TYPE(args[1], &MessageType)) {
        PyErr_SetString(PyExc_TypeError, "accept(endpoint, message)");
        return NULL;
    }
    if (c_accept(args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
handler_get_booted(HandlerObj *h, void *closure)
{
    return PyBool_FromLong(h->state != H_BOOT);
}

/* interrupt(cause=None): the kernel's Process.interrupt. */
static PyObject *
handler_interrupt(PyObject *self, PyObject *const *args, size_t nargsf,
                  PyObject *kwnames)
{
    if (g_interrupt_func == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "configure_transport() not called");
        return NULL;
    }
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    PyObject *stack[8];
    if (nargs + nkw + 1 > 8) {
        PyErr_SetString(PyExc_TypeError, "interrupt(cause=None)");
        return NULL;
    }
    stack[0] = self;
    for (Py_ssize_t i = 0; i < nargs + nkw; i++)
        stack[i + 1] = args[i];
    return PyObject_Vectorcall(g_interrupt_func, stack, nargs + 1, kwnames);
}

static int
handler_traverse(HandlerObj *h, visitproc visit, void *arg)
{
    Py_VISIT(h->endpoint);
    Py_VISIT(h->msg);
    Py_VISIT(h->handler);
    Py_VISIT(h->key);
    Py_VISIT(h->heap);
    Py_VISIT(h->status);
    Py_VISIT(h->value);
    Py_VISIT(h->nbytes);
    return process_traverse(&h->proc, visit, arg);
}

static int
handler_clear(HandlerObj *h)
{
    Py_CLEAR(h->endpoint);
    Py_CLEAR(h->msg);
    Py_CLEAR(h->handler);
    Py_CLEAR(h->key);
    Py_CLEAR(h->heap);
    Py_CLEAR(h->status);
    Py_CLEAR(h->value);
    Py_CLEAR(h->nbytes);
    return process_clear(&h->proc);
}

static void
handler_dealloc(HandlerObj *h)
{
    PyObject_GC_UnTrack(h);
    if (h->proc.ev.weakreflist != NULL)
        PyObject_ClearWeakRefs((PyObject *)h);
    handler_clear(h);
    Py_TYPE(h)->tp_free((PyObject *)h);
}

static PyMethodDef handler_methods[] = {
    {"interrupt", (PyCFunction)(void (*)(void))handler_interrupt,
     METH_FASTCALL | METH_KEYWORDS,
     "interrupt(cause=None): throw Interrupt into the handler"},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef handler_getset[] = {
    {"name", (getter)handler_get_name, (setter)handler_set_name,
     "\"{endpoint}:{op}#{msg_id}\"", NULL},
    {"booted", (getter)handler_get_booted, NULL,
     "False while the dispatch charge runs", NULL},
    {NULL},
};

static PyTypeObject HandlerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    /* __name__ "Process", like the kernel's: event logs record it. */
    .tp_name = "_simcore.Process",
    .tp_doc = "The handler process of one arrived message (C mirror of "
              "Endpoint._accept and Endpoint._handle)",
    .tp_basicsize = sizeof(HandlerObj),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_DISALLOW_INSTANTIATION,
    .tp_base = &ProcessType,
    .tp_dealloc = (destructor)handler_dealloc,
    .tp_traverse = (traverseproc)handler_traverse,
    .tp_clear = (inquiry)handler_clear,
    .tp_methods = handler_methods,
    .tp_getset = handler_getset,
};

/* ---- Leg: the arrival step ------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *src, *dst, *msg, *deadline, *wire, *lost;
    Py_ssize_t copies;
} LegObj;

static int
leg_traverse(LegObj *l, visitproc visit, void *arg)
{
    Py_VISIT(l->src);
    Py_VISIT(l->dst);
    Py_VISIT(l->msg);
    Py_VISIT(l->deadline);
    Py_VISIT(l->wire);
    Py_VISIT(l->lost);
    return 0;
}

static int
leg_clear(LegObj *l)
{
    Py_CLEAR(l->src);
    Py_CLEAR(l->dst);
    Py_CLEAR(l->msg);
    Py_CLEAR(l->deadline);
    Py_CLEAR(l->wire);
    Py_CLEAR(l->lost);
    return 0;
}

static void
leg_dealloc(LegObj *l)
{
    PyObject_GC_UnTrack(l);
    leg_clear(l);
    Py_TYPE(l)->tp_free((PyObject *)l);
}

/* Mirror of _Leg.__call__: the arrival step, at the wire end. */
static PyObject *
leg_call(LegObj *l, PyObject *args, PyObject *kwds)
{
    MessageObj *msg = (MessageObj *)l->msg;
    PyObject *fabric = get(l->dst, &A_fabric), *endpoints = NULL;
    PyObject *result = NULL;
    if (fabric == NULL || (endpoints = get(fabric, &A__endpoints))
                              == NULL)
        goto done;
    if (!PyDict_Check(endpoints)) {
        PyErr_SetString(PyExc_TypeError, "_endpoints must be a dict");
        goto done;
    }
    PyObject *bound = PyDict_GetItemWithError(endpoints, msg->dst);
    if (bound == NULL && PyErr_Occurred())
        goto done;
    int vanished = bound != l->dst;
    if (!vanished && (vanished = attr_true(l->dst, &A__closed)) < 0)
        goto done;
    if (vanished) {
        PyObject *lost = PyUnicode_FromFormat(
            "endpoint %R vanished while %R was in flight", msg->dst, msg->op);
        if (lost == NULL)
            goto done;
        Py_XSETREF(l->lost, Py_NewRef(lost));
        if (dead_letter(fabric, l->msg, lost) < 0)
            goto done;
        result = Py_NewRef(Py_None);
        goto done;
    }
    for (Py_ssize_t i = 0; i <= l->copies; i++)
        if (c_accept(l->dst, l->msg) < 0)
            goto done;
    if (l->deadline != NULL && l->deadline != Py_None) {
        /* Only while someone still waits on the reply token. */
        PyObject **slot = waiters_slot(msg->reply_to);
        if (slot == NULL) {
            PyErr_SetString(PyExc_TypeError, "a reply token must be an Event");
            goto done;
        }
        if (*slot != NULL && *slot != Py_None && PyList_GET_SIZE(*slot) > 0 &&
            deadline_add(l->deadline, msg->reply_to) < 0)
            goto done;
    }
    result = Py_NewRef(Py_None);
done:
    Py_XDECREF(endpoints);
    Py_XDECREF(fabric);
    return result;
}

static PyMemberDef leg_members[] = {
    {"src", T_OBJECT, offsetof(LegObj, src), READONLY, "sender endpoint"},
    {"dst", T_OBJECT, offsetof(LegObj, dst), READONLY, "destination endpoint"},
    {"msg", T_OBJECT, offsetof(LegObj, msg), READONLY, "the message"},
    {"copies", T_PYSSIZET, offsetof(LegObj, copies), READONLY,
     "injected duplicates: each is handed to the destination too"},
    {"deadline", T_OBJECT, offsetof(LegObj, deadline), READONLY,
     "the RPC deadline to start on arrival, if the op has one"},
    {"wire", T_OBJECT, offsetof(LegObj, wire), READONLY,
     "the timer at the wire end"},
    {"lost", T_OBJECT, offsetof(LegObj, lost), READONLY,
     "why a one-way message found nobody to deliver to"},
    {NULL},
};

static PyTypeObject LegType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_simcore.Leg",
    .tp_doc = "One posted message on its way (C mirror of transport._Leg)",
    .tp_basicsize = sizeof(LegObj),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_DISALLOW_INSTANTIATION,
    .tp_call = (ternaryfunc)leg_call,
    .tp_dealloc = (destructor)leg_dealloc,
    .tp_traverse = (traverseproc)leg_traverse,
    .tp_clear = (inquiry)leg_clear,
    .tp_members = leg_members,
};

/* ---- post: TransportFabric._post ------------------------------------ */

/* Mirror of TransportFabric._post: the send side of every message, run
 * synchronously in the sender.  Returns the message's Leg, or None when the
 * send-point seam dropped it. */
static PyObject *
c_post(PyObject *fabric, PyObject *src, PyObject *dst_name, PyObject *op,
       PyObject *payload, PyObject *nbytes, PyObject *reply_to,
       PyObject *deadline)
{
    PyObject *endpoints = NULL, *dst = NULL, *engine = NULL, *params = NULL,
             *size = NULL, *queue = NULL, *ids = NULL, *msg_id = NULL,
             *src_name = NULL, *sent_at = NULL, *msg = NULL, *faults = NULL,
             *src_host = NULL, *dst_host = NULL, *timer = NULL;
    LegObj *leg = NULL;
    PyObject *result = NULL;
    int closed;
    if ((endpoints = get(fabric, &A__endpoints)) == NULL)
        goto done;
    if (!PyDict_Check(endpoints)) {
        PyErr_SetString(PyExc_TypeError, "_endpoints must be a dict");
        goto done;
    }
    dst = PyDict_GetItemWithError(endpoints, dst_name);
    if (dst == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(g_comm_error, "cannot resolve endpoint %R", dst_name);
        goto done;
    }
    Py_INCREF(dst);
    if ((closed = attr_true(dst, &A__closed)) != 0) {
        if (closed > 0)
            PyErr_Format(g_comm_error, "endpoint %R is stopped", dst_name);
        goto done;
    }
    if ((engine = get(fabric, &A_engine)) == NULL ||
        (params = get(fabric, &A_params)) == NULL)
        goto done;
    size = nbytes == Py_None ? get(params, &A_control_payload)
                             : PyNumber_Long(nbytes);
    if (size == NULL || (queue = get(engine, &A__queue)) == NULL)
        goto done;
    if (Py_TYPE(queue) != &HeapType) {
        PyErr_SetString(PyExc_TypeError,
                        "the C message path needs the C EventHeap");
        goto done;
    }
    Heap *heap = (Heap *)queue;
    double now = heap->now;
    if ((ids = get(fabric, &A__msg_ids)) == NULL ||
        (msg_id = PyIter_Next(ids)) == NULL ||
        (src_name = get(src, &A_name)) == NULL ||
        (sent_at = PyFloat_FromDouble(now)) == NULL ||
        (msg = message_create(msg_id, src_name, dst_name, op, payload, size,
                              reply_to, sent_at)) == NULL ||
        (faults = get(src, &A_faults)) == NULL)
        goto done;
    Py_ssize_t copies = 0;
    if (faults != Py_None) {
        PyObject *fate = PyObject_CallMethodObjArgs(faults, S_strike, S_send,
                                                    op, NULL);
        if (fate == NULL)
            goto done;
        if (fate == Py_None) {
            Py_DECREF(fate);
            if (bump_accounting(fabric, &A_messages_dropped) < 0)
                goto done;
            if (deadline != Py_None && deadline_add(deadline, reply_to) < 0)
                goto done;
            result = Py_NewRef(Py_None);
            goto done;
        }
        if (!PyTuple_Check(fate) || PyTuple_GET_SIZE(fate) != 2) {
            Py_DECREF(fate);
            PyErr_SetString(PyExc_TypeError, "a fate is (delay, copies)");
            goto done;
        }
        double delay = PyFloat_AsDouble(PyTuple_GET_ITEM(fate, 0));
        copies = PyLong_AsSsize_t(PyTuple_GET_ITEM(fate, 1));
        Py_DECREF(fate);
        if (PyErr_Occurred())
            goto done;
        now += delay;
    }
    leg = PyObject_GC_New(LegObj, &LegType);
    if (leg == NULL)
        goto done;
    leg->src = Py_NewRef(src);
    leg->dst = Py_NewRef(dst);
    leg->msg = Py_NewRef(msg);
    leg->copies = copies;
    leg->deadline = Py_NewRef(deadline);
    leg->wire = Py_NewRef(Py_None);
    leg->lost = Py_NewRef(Py_None);
    PyObject_GC_Track(leg);
    double marshal, wire;
    if (marshal_time(params, size, &marshal) < 0 ||
        (src_host = get(src, &A_host_name)) == NULL ||
        (dst_host = get(dst, &A_host_name)) == NULL ||
        wire_time(fabric, src_host, dst_host, size, &wire) < 0 ||
        count_message(fabric, op, size) < 0)
        goto done;
    if ((timer = timeout_at(heap, (now + marshal) + wire)) == NULL)
        goto done;
    Py_SETREF(leg->wire, Py_NewRef(timer));
    PyObject *waiters = timeout_waiters((TimeoutObj *)timer);
    if (waiters == NULL || PyList_Append(waiters, (PyObject *)leg) < 0)
        goto done;
    result = Py_NewRef(leg);
done:
    Py_XDECREF(timer);
    Py_XDECREF(leg);
    Py_XDECREF(dst_host);
    Py_XDECREF(src_host);
    Py_XDECREF(faults);
    Py_XDECREF(msg);
    Py_XDECREF(sent_at);
    Py_XDECREF(src_name);
    Py_XDECREF(msg_id);
    Py_XDECREF(ids);
    Py_XDECREF(queue);
    Py_XDECREF(size);
    Py_XDECREF(params);
    Py_XDECREF(engine);
    Py_XDECREF(dst);
    Py_XDECREF(endpoints);
    return result;
}

/* post(fabric, src, dst_name, op, payload, nbytes, reply_to, deadline) */
static PyObject *
transport_post(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    if (g_expired == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "configure_transport() not called");
        return NULL;
    }
    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError, "post(fabric, src, dst_name, op, "
                        "payload, nbytes, reply_to, deadline)");
        return NULL;
    }
    return c_post(args[0], args[1], args[2], args[3], args[4], args[5],
                  args[6], args[7]);
}

/* ---- request: Endpoint.request -------------------------------------- */

/* Mirror of TransportFabric._deadline_queue(policy.deadline): the fabric's
 * queue for the length, read from its _deadline_queues; a queue not made
 * yet or a fabric of another type goes through the method. */
static PyObject *
deadline_queue(PyObject *fabric, PyObject *policy)
{
    PyObject *length = PyObject_GetAttr(policy, S_deadline), *queue = NULL;
    if (length == NULL)
        return NULL;
    if (Py_TYPE(fabric) == A__deadline_queues.type) {
        PyObject *queues = get(fabric, &A__deadline_queues);
        if (queues != NULL && PyDict_Check(queues))
            queue = Py_XNewRef(PyDict_GetItemWithError(queues, length));
        Py_XDECREF(queues);
        if (PyErr_Occurred()) {
            Py_XDECREF(queue);
            Py_DECREF(length);
            return NULL;
        }
    }
    if (queue == NULL)
        queue = PyObject_CallMethodOneArg(fabric, S__deadline_queue, length);
    Py_DECREF(length);
    return queue;
}

/* request(endpoint, dst, op, payload=None): post one attempt of an RPC and
 * return its reply token.  Bound over Endpoint.request, its mirror. */
static PyObject *
transport_request(PyObject *mod, PyObject *const *args, size_t nargsf,
                  PyObject *kwnames)
{
    static const char *const names[] = {"self", "dst", "op", "payload"};
    PyObject *argv[4] = {NULL, NULL, NULL, Py_None};
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    if (g_expired == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "configure_transport() not called");
        return NULL;
    }
    if (nargs > 4)
        goto usage;
    for (Py_ssize_t i = 0; i < nargs; i++)
        argv[i] = args[i];
    for (Py_ssize_t k = 0; k < nkw; k++) {
        Py_ssize_t i = 1;
        while (i < 4 && PyUnicode_CompareWithASCIIString(
                            PyTuple_GET_ITEM(kwnames, k), names[i]) != 0)
            i++;
        if (i == 4 || i < nargs)
            goto usage;
        argv[i] = args[nargs + k];
    }
    if (argv[0] == NULL || argv[1] == NULL || argv[2] == NULL)
        goto usage;
    PyObject *endpoint = argv[0], *op = argv[2];
    PyObject *fabric = NULL, *deadlines = NULL, *deadline = NULL,
             *engine = NULL, *reply = NULL, *leg = NULL;
    if ((fabric = get(endpoint, &A_fabric)) == NULL ||
        (deadlines = get(endpoint, &A_deadlines)) == NULL)
        goto done;
    PyObject *policy = PyDict_Check(deadlines)
                           ? Py_XNewRef(PyDict_GetItemWithError(deadlines, op))
                           : PyObject_CallMethodObjArgs(deadlines, S_get, op,
                                                        NULL);
    if (policy == NULL && PyErr_Occurred())
        goto done;
    deadline = policy == NULL || policy == Py_None
                   ? Py_NewRef(Py_None) : deadline_queue(fabric, policy);
    Py_XDECREF(policy);
    if (deadline == NULL || (engine = get(fabric, &A_engine)) == NULL ||
        (reply = event_alloc(engine)) == NULL ||
        (leg = c_post(fabric, endpoint, argv[1], op, argv[3], Py_None, reply,
                      deadline)) == NULL)
        Py_CLEAR(reply);
done:
    Py_XDECREF(leg);
    Py_XDECREF(engine);
    Py_XDECREF(deadline);
    Py_XDECREF(deadlines);
    Py_XDECREF(fabric);
    return reply;
usage:
    PyErr_SetString(PyExc_TypeError, "request(dst, op, payload=None)");
    return NULL;
}

/* configure_transport(interrupt, Interrupt, CommunicationError, EXPIRED,
 *                     classes) */
static PyObject *
simcore_configure_transport(PyObject *mod, PyObject *args)
{
    PyObject *func, *cls, *error, *expired, *classes;
    if (!PyArg_ParseTuple(args, "OOOOO", &func, &cls, &error, &expired,
                          &classes) || find_slots(classes) < 0)
        return NULL;
    Py_XSETREF(g_interrupt_func, Py_NewRef(func));
    Py_XSETREF(g_interrupt_cls, Py_NewRef(cls));
    Py_XSETREF(g_comm_error, Py_NewRef(error));
    Py_XSETREF(g_expired, Py_NewRef(expired));
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* configure()                                                         */
/* ------------------------------------------------------------------ */

static PyObject *
simcore_configure(PyObject *mod, PyObject *simerror)
{
    Py_XSETREF(g_simerror, Py_NewRef(simerror));
    Py_RETURN_NONE;
}

static PyMethodDef simcore_methods[] = {
    {"drain", (PyCFunction)(void (*)(void))simcore_drain, METH_FASTCALL,
     "drain(heap, until, clamp, stopproc) -> int stop code"},
    {"configure", simcore_configure, METH_O,
     "configure(simerror_type)"},
    {"configure_transport", simcore_configure_transport, METH_VARARGS,
     "configure_transport(interrupt, Interrupt, CommunicationError, EXPIRED, "
     "(fabric, endpoint, accounting, params, network, engine classes))"},
    {"post", (PyCFunction)(void (*)(void))transport_post, METH_FASTCALL,
     "post(fabric, src, dst_name, op, payload, nbytes, reply_to, deadline) "
     "-> Leg or None"},
    {"accept", (PyCFunction)(void (*)(void))transport_accept, METH_FASTCALL,
     "accept(endpoint, message) -> None"},
    {"request", (PyCFunction)(void (*)(void))transport_request,
     METH_FASTCALL | METH_KEYWORDS,
     "request(endpoint, dst, op, payload=None) -> the reply token"},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef simcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_simcore",
    .m_doc = "C hot core (event heap, events, processes, dispatch) for "
             "repro.sim",
    .m_size = -1,
    .m_methods = simcore_methods,
};

PyMODINIT_FUNC
PyInit__simcore(void)
{
#define INTERN(var, s)                              \
    do {                                            \
        var = PyUnicode_InternFromString(s);        \
        if (var == NULL)                            \
            return NULL;                            \
    } while (0)
    INTERN(str__queue, "_queue");
    INTERN(str_throw, "throw");
    INTERN(str___name__, "__name__");
    INTERN(S_strike, "strike");
    INTERN(S_send, "send");
    INTERN(S_deliver, "deliver");
    INTERN(S_add, "add");
    INTERN(S__dead_letter, "_dead_letter");
    INTERN(S_wire_time, "wire_time");
    INTERN(S_ok, "ok");
    INTERN(S_error, "error");
    INTERN(S_get, "get");
    INTERN(S_deadline, "deadline");
    INTERN(S__deadline_queue, "_deadline_queue");
    INTERN(S__expire_due, "_expire_due");
    for (Attr **it = g_attrs; *it != NULL; it++)
        INTERN((*it)->name, (*it)->text);
#undef INTERN
    if (g_pending == NULL) {
        /* A plain object(): a pending event's `_value`. */
        g_pending = PyObject_CallNoArgs((PyObject *)&PyBaseObject_Type);
        if (g_pending == NULL)
            return NULL;
    }
    if ((g_zero == NULL && (g_zero = PyLong_FromLong(0)) == NULL) ||
        (g_one == NULL && (g_one = PyLong_FromLong(1)) == NULL) ||
        (g_128 == NULL && (g_128 = PyLong_FromLong(128)) == NULL))
        return NULL;
    if (PyType_Ready(&HeapType) < 0 || PyType_Ready(&TimeoutType) < 0 ||
        PyType_Ready(&EventType) < 0 || PyType_Ready(&ProcessType) < 0 ||
        PyType_Ready(&AnyOfType) < 0 || PyType_Ready(&AllOfType) < 0 ||
        PyType_Ready(&MessageType) < 0 || PyType_Ready(&HandlerType) < 0 ||
        PyType_Ready(&LegType) < 0 || PyType_Ready(&DeadlineType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&simcore_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddObjectRef(m, "EventHeap", (PyObject *)&HeapType) < 0 ||
        PyModule_AddObjectRef(m, "Timeout", (PyObject *)&TimeoutType) < 0 ||
        PyModule_AddObjectRef(m, "Event", (PyObject *)&EventType) < 0 ||
        PyModule_AddObjectRef(m, "Process", (PyObject *)&ProcessType) < 0 ||
        PyModule_AddObjectRef(m, "Message", (PyObject *)&MessageType) < 0 ||
        PyModule_AddObjectRef(m, "Handler", (PyObject *)&HandlerType) < 0 ||
        PyModule_AddObjectRef(m, "Leg", (PyObject *)&LegType) < 0 ||
        PyModule_AddObjectRef(m, "AnyOf", (PyObject *)&AnyOfType) < 0 ||
        PyModule_AddObjectRef(m, "AllOf", (PyObject *)&AllOfType) < 0 ||
        PyModule_AddObjectRef(m, "DeadlineQueue", (PyObject *)&DeadlineType)
            < 0 ||
        PyModule_AddObjectRef(m, "PENDING", g_pending) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    /* These bind like methods: TransportFabric._post, Endpoint._accept,
     * Endpoint.request, Engine.any_of and Engine.all_of on the compiled
     * leg (the last two are the condition types, called with the engine). */
    static const char *bound[][2] = {
        {"post", "post"}, {"accept", "accept"}, {"request", "request"},
        {"any_of", "AnyOf"}, {"all_of", "AllOf"}, {NULL, NULL}};
    for (int i = 0; bound[i][0] != NULL; i++) {
        const char *const *name = bound[i];
        PyObject *func = PyObject_GetAttrString(m, name[1]), *method = NULL;
        if (func != NULL)
            method = PyInstanceMethod_New(func);
        Py_XDECREF(func);
        if (method == NULL || PyModule_AddObject(m, name[0], method) < 0) {
            Py_XDECREF(method);
            Py_DECREF(m);
            return NULL;
        }
    }
    return m;
}
