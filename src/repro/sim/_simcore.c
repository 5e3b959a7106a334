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
 * Event, Process, Timeout
 *   The event family as C structs, so a wake-up reads and writes fields
 *   instead of attributes.  ``Event`` holds engine, callbacks, value, ok
 *   and scheduled (plus a weakref slot) and has ``succeed`` / ``fail``;
 *   ``Request``, ``AnyOf`` and ``AllOf`` stay Python subclasses of it.
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
 *   GC).  Their type ``__name__``s are "Event", "Process" and "Timeout",
 *   so determinism event logs match the pure-Python kernel's exactly.
 *
 * drain(heap, until, clamp, stopproc)
 *   The non-logging dispatch loop: pop, advance the clock, run callbacks.
 *   A callback that is a Process resumes in C (``c_resume``): interrupt
 *   check, generator send/throw, the finish (``c_finish``: settle in
 *   place, count a fan-out join down, or schedule), subscribe to the
 *   yielded event.  Every branch mirrors the pure-Python
 *   ``Process.__call__`` / ``_finish`` line for line; the determinism suite
 *   pins the equivalence.
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
static PyObject *g_join_func;     /* AllOf._on_fire (plain function) */
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

static PyObject *
heap_remove(Heap *self, PyObject *obj)
{
    /* Take a scheduled entry out without dispatching it (a disarmed timer).
     * A linear scan: the callers keep at most one such entry per queue of
     * theirs, and pop order is the total (when, prio, seq) order whatever
     * the layout, so the heap replays exactly as if it had never held it. */
    Entry *arr = self->arr;
    Py_ssize_t i = 0;
    while (i < self->size && arr[i].item != obj)
        i++;
    if (i == self->size) {
        PyErr_SetString(PyExc_ValueError, "remove(): object is not scheduled");
        return NULL;
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
    Py_RETURN_NONE;
}

static PyObject *timeout_alloc(double delay, PyObject *value); /* forward */

static PyObject *
heap_timeout_at(Heap *self, PyObject *arg)
{
    /* A Timeout at the absolute instant `when`: the float a chain of
     * relative charges reached, pushed without re-rounding it through
     * `when - now`. */
    double when = PyFloat_AsDouble(arg);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
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
    EventObj *self = PyObject_GC_New(EventObj, &EventType);
    if (self == NULL)
        return NULL;
    self->engine = Py_NewRef(args[0]);
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
        if (g_join_func != NULL && PyMethod_Check(cb) &&
            PyMethod_GET_FUNCTION(cb) == g_join_func)
            join = Py_NewRef(cb);
    }
    if (!ok || (n > 0 && join == NULL))
        return owner_push(p->ev.engine, 0.0, 1 /* PRIORITY_NORMAL */,
                          (PyObject *)p);
    Py_XSETREF(p->ev.callbacks, Py_NewRef(Py_None));
    if (join == NULL)
        return 0;
    PyObject *r = PyObject_CallOneArg(join, (PyObject *)p);
    Py_DECREF(join);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
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

/* Mirror of Process.__call__.  Returns 0 on success, -1 with an exception
 * set on failure.  Every branch corresponds to a line of the Python
 * implementation in engine.py — keep them in sync. */
static int
c_resume(ProcessObj *p, PyObject *event)
{
    int result = -1;
    PyObject *gen = p->generator, *next = NULL, *stopval = NULL;
    Py_INCREF(event); /* we re-bind `event` while chaining */

    for (;;) {
        /* -- advance the generator ---------------------------------- */
        PyObject *intrs = p->interrupts;
        if (intrs != NULL && PyList_Check(intrs) && PyList_GET_SIZE(intrs) > 0) {
            PyObject *intr = Py_NewRef(PyList_GET_ITEM(intrs, 0));
            if (PyList_SetSlice(intrs, 0, 1, NULL) < 0) {
                Py_DECREF(intr);
                goto done;
            }
            next = PyObject_CallMethodOneArg(gen, str_throw, intr);
            Py_DECREF(intr);
        } else {
            int ok;
            PyObject *value;
            if (Py_TYPE(event) == &TimeoutType) {
                ok = 1;
                value = ((TimeoutObj *)event)->value;
                value = value ? value : Py_None;
            } else if (PyObject_TypeCheck(event, &EventType)) {
                ok = ((EventObj *)event)->ok > 0;
                value = ((EventObj *)event)->value;
                value = value ? value : g_pending;
            } else {
                raise_simerror("process %R was resumed by %R, not an Event",
                               p->name ? p->name : Py_None, event);
                goto done;
            }
            if (ok) {
                /* generator.send(value); a plain return arrives as
                 * PYGEN_RETURN, with no StopIteration object made. */
                if (PyIter_Send(gen, value, &next) == PYGEN_RETURN) {
                    stopval = next;
                    next = NULL;
                }
            } else {
                next = PyObject_CallMethodOneArg(gen, str_throw, value);
            }
        }

        if (next == NULL) {
            /* -- generator finished or raised ------------------------ */
            if (stopval == NULL && PyErr_ExceptionMatches(PyExc_StopIteration)) {
                PyObject *etype, *evalue, *etb;
                PyErr_Fetch(&etype, &evalue, &etb);
                PyErr_NormalizeException(&etype, &evalue, &etb);
                stopval = evalue ? PyObject_GetAttrString(evalue, "value")
                                 : Py_NewRef(Py_None);
                Py_XDECREF(etype);
                Py_XDECREF(evalue);
                Py_XDECREF(etb);
                if (stopval == NULL)
                    goto done;
            }
            if (stopval != NULL) {
                result = c_finish(p, 1, stopval);
                goto done;
            }
            if (PyErr_ExceptionMatches(PyExc_KeyboardInterrupt) ||
                PyErr_ExceptionMatches(PyExc_SystemExit))
                goto done; /* propagate */
            /* Unhandled in-process exception: fail the process event;
             * escalation happens at dispatch time if nobody watches. */
            PyObject *etype, *evalue, *etb;
            PyErr_Fetch(&etype, &evalue, &etb);
            PyErr_NormalizeException(&etype, &evalue, &etb);
            if (etb != NULL)
                PyException_SetTraceback(evalue, etb);
            Py_XDECREF(etype);
            Py_XDECREF(etb);
            if (evalue == NULL)
                goto done;
            result = c_finish(p, 0, evalue);
            Py_DECREF(evalue);
            goto done;
        }

        /* -- the generator yielded `next` --------------------------- */
        PyObject **slot = waiters_slot(next);
        if (slot == NULL) {
            raise_simerror("process %R yielded %R, not an Event",
                           p->name ? p->name : Py_None, next);
            goto done;
        }
        if (*slot == Py_None) {
            /* Already fired: loop around synchronously. */
            Py_SETREF(event, next);
            next = NULL;
            continue;
        }
        PyObject *waiters = Py_TYPE(next) == &TimeoutType
                                ? timeout_waiters((TimeoutObj *)next)
                                : event_waiters((EventObj *)next);
        if (waiters == NULL || PyList_Append(waiters, (PyObject *)p) < 0)
            goto done;
        Py_XSETREF(p->target, next); /* takes our reference */
        next = NULL;
        result = 0;
        goto done;
    }

done:
    Py_XDECREF(stopval);
    Py_XDECREF(next);
    Py_DECREF(event);
    return result;
}

/* Invoke one dispatched event's callback list (already detached). */
static int
run_callbacks(PyObject *cbs, PyObject *event)
{
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(cbs); i++) {
        PyObject *cb = Py_NewRef(PyList_GET_ITEM(cbs, i));
        int rc;
        if (PyObject_TypeCheck(cb, &ProcessType)) {
            rc = c_resume((ProcessObj *)cb, event);
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
/* configure()                                                         */
/* ------------------------------------------------------------------ */

static PyObject *
simcore_configure(PyObject *mod, PyObject *args)
{
    PyObject *simerror, *join;
    if (!PyArg_ParseTuple(args, "OO", &simerror, &join))
        return NULL;
    Py_XSETREF(g_simerror, Py_NewRef(simerror));
    Py_XSETREF(g_join_func, Py_NewRef(join));
    Py_RETURN_NONE;
}

static PyMethodDef simcore_methods[] = {
    {"drain", (PyCFunction)(void (*)(void))simcore_drain, METH_FASTCALL,
     "drain(heap, until, clamp, stopproc) -> int stop code"},
    {"configure", simcore_configure, METH_VARARGS,
     "configure(simerror_type, join_func)"},
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
#undef INTERN
    if (g_pending == NULL) {
        /* A plain object(): a pending event's `_value`. */
        g_pending = PyObject_CallNoArgs((PyObject *)&PyBaseObject_Type);
        if (g_pending == NULL)
            return NULL;
    }
    if (PyType_Ready(&HeapType) < 0 || PyType_Ready(&TimeoutType) < 0 ||
        PyType_Ready(&EventType) < 0 || PyType_Ready(&ProcessType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&simcore_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddObjectRef(m, "EventHeap", (PyObject *)&HeapType) < 0 ||
        PyModule_AddObjectRef(m, "Timeout", (PyObject *)&TimeoutType) < 0 ||
        PyModule_AddObjectRef(m, "Event", (PyObject *)&EventType) < 0 ||
        PyModule_AddObjectRef(m, "Process", (PyObject *)&ProcessType) < 0 ||
        PyModule_AddObjectRef(m, "PENDING", g_pending) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
