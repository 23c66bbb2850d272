/* Compiled event core: a C twin of repro.sim._engine.
 *
 * Implements the hot engine classes (Event, _Echo, Timeout, Process,
 * CalendarQueue, Environment) as CPython extension types.  Everything
 * observable -- event order, decision strings, error messages, repr
 * formats -- matches the pure-Python reference engine byte for byte;
 * tests/sim/test_core_equivalence.py and tests/ci/test_core_identity.py
 * enforce that.  Cold paths (schedule-policy stepping, combinators,
 * deadlock diagnostics) live in repro.sim._compiled, a thin Python
 * layer subclassing these types.
 *
 * The pure engine is a plain heapq of (time, seq, event); this core
 * produces the same (time, seq) order from its own scheduler:
 *   - now-queue: PyList of (time, seq, event) tuples for delay-0
 *     schedules (append order == (time, seq) order);
 *   - batch: PyList holding the current same-tick calendar batch
 *     (materialized only for multi-event ticks and the policy path);
 *   - calendar: C bucket arrays, sorted by (t, seq), bucket table
 *     keyed by floor(t / width), lazy min-heap of bucket indices,
 *     far-future overflow list, width auto-tuned from observed
 *     inter-batch gaps.  Singleton ticks dispatch straight from the
 *     C entry -- no tuple, no list, no Python frames.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>

/* ---- shared objects imported at module init ---------------------- */
static PyObject *SimulationError;   /* repro.common.errors */
static PyObject *ConfigError;       /* repro.common.errors */
static PyObject *PENDING;           /* repro.sim._base */
static PyObject *InterruptExc;      /* repro.sim._base */

/* 2**1023: times at or beyond this (incl. +inf) skip the buckets */
static const double FAR_TIME = 8.98846567431158e307;

/* ---- forward type decls ------------------------------------------ */
static PyTypeObject EventType;
static PyTypeObject EchoType;
static PyTypeObject TimeoutType;
static PyTypeObject ProcessType;
static PyTypeObject CalendarType;
static PyTypeObject EnvironmentType;

/* ================= calendar queue internals ======================= */

typedef struct {
    double t;
    long long seq;
    PyObject *ev;      /* strong reference */
} centry;

typedef struct {
    centry *items;
    Py_ssize_t len;
    Py_ssize_t cap;
} cbucket;

/* open-addressing hash table: int64 bucket index -> cbucket*      */
typedef struct {
    long long *keys;
    cbucket **vals;    /* NULL = empty slot, TOMB = tombstone */
    Py_ssize_t cap;    /* power of two */
    Py_ssize_t used;   /* live + tombstones */
    Py_ssize_t live;
} cmap;

static cbucket *const TOMB = (cbucket *)1;

typedef struct {
    long long *items;
    Py_ssize_t len;
    Py_ssize_t cap;
} cheap;

typedef struct {
    PyObject_HEAD
    cmap map;
    cheap order;
    centry *far;
    Py_ssize_t far_len, far_cap;
    double width, inv_width;
    Py_ssize_t nlen;          /* total entries */
    long pop_count;           /* batch pops since last window boundary */
    double window_t;          /* batch time at last boundary */
    int window_set;
    unsigned long gen;        /* bumped on every rebuild: the drain's
                                 bucket pointer is invalid if this moved */
} Calendar;

#define GAP_WINDOW 256
#define SPILL_LIMIT 512
#define MIN_WIDTH 1e-3
#define MAX_WIDTH 65536.0

static cbucket *bucket_new(void) {
    cbucket *b = PyMem_Malloc(sizeof(cbucket));
    if (!b) return NULL;
    b->items = NULL; b->len = 0; b->cap = 0;
    return b;
}

static void bucket_free(cbucket *b) {
    Py_ssize_t i;
    if (!b || b == TOMB) return;
    for (i = 0; i < b->len; i++) Py_XDECREF(b->items[i].ev);
    PyMem_Free(b->items);
    PyMem_Free(b);
}

static int bucket_reserve(cbucket *b, Py_ssize_t need) {
    Py_ssize_t cap;
    centry *ni;
    if (need <= b->cap) return 0;
    cap = b->cap ? b->cap * 2 : 4;
    if (cap < need) cap = need;
    ni = PyMem_Realloc(b->items, cap * sizeof(centry));
    if (!ni) { PyErr_NoMemory(); return -1; }
    b->items = ni; b->cap = cap;
    return 0;
}

/* sorted insert by (t, seq); steals a reference to ev */
static int bucket_insort(cbucket *b, double t, long long seq, PyObject *ev) {
    Py_ssize_t lo = 0, hi = b->len, mid;
    if (bucket_reserve(b, b->len + 1) < 0) return -1;
    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (b->items[mid].t < t ||
            (b->items[mid].t == t && b->items[mid].seq < seq)) lo = mid + 1;
        else hi = mid;
    }
    memmove(b->items + lo + 1, b->items + lo,
            (b->len - lo) * sizeof(centry));
    b->items[lo].t = t; b->items[lo].seq = seq; b->items[lo].ev = ev;
    b->len++;
    return 0;
}

static int cmap_init(cmap *m, Py_ssize_t cap) {
    m->keys = PyMem_Malloc(cap * sizeof(long long));
    m->vals = PyMem_Calloc(cap, sizeof(cbucket *));
    if (!m->keys || !m->vals) {
        PyMem_Free(m->keys); PyMem_Free(m->vals);
        PyErr_NoMemory(); return -1;
    }
    m->cap = cap; m->used = 0; m->live = 0;
    return 0;
}

static void cmap_free_buckets(cmap *m) {
    Py_ssize_t i;
    for (i = 0; i < m->cap; i++)
        if (m->vals[i] && m->vals[i] != TOMB) bucket_free(m->vals[i]);
    PyMem_Free(m->keys); PyMem_Free(m->vals);
    m->keys = NULL; m->vals = NULL; m->cap = m->used = m->live = 0;
}

static inline Py_ssize_t cmap_hash(long long key, Py_ssize_t cap) {
    unsigned long long h = (unsigned long long)key;
    h ^= h >> 33; h *= 0xff51afd7ed558ccdULL; h ^= h >> 33;
    return (Py_ssize_t)(h & (unsigned long long)(cap - 1));
}

static cbucket *cmap_get(cmap *m, long long key) {
    Py_ssize_t i = cmap_hash(key, m->cap);
    while (m->vals[i]) {
        if (m->vals[i] != TOMB && m->keys[i] == key) return m->vals[i];
        i = (i + 1) & (m->cap - 1);
    }
    return NULL;
}

static int cmap_set(cmap *m, long long key, cbucket *val);

static int cmap_grow(cmap *m) {
    cmap nm;
    Py_ssize_t i;
    if (cmap_init(&nm, m->cap * 2) < 0) return -1;
    for (i = 0; i < m->cap; i++) {
        if (m->vals[i] && m->vals[i] != TOMB) {
            if (cmap_set(&nm, m->keys[i], m->vals[i]) < 0) {
                PyMem_Free(nm.keys); PyMem_Free(nm.vals);
                return -1;
            }
        }
    }
    PyMem_Free(m->keys); PyMem_Free(m->vals);
    *m = nm;
    return 0;
}

static int cmap_set(cmap *m, long long key, cbucket *val) {
    Py_ssize_t i;
    if ((m->used + 1) * 3 >= m->cap * 2 && cmap_grow(m) < 0) return -1;
    i = cmap_hash(key, m->cap);
    while (m->vals[i] && m->vals[i] != TOMB) {
        if (m->keys[i] == key) { m->vals[i] = val; return 0; }
        i = (i + 1) & (m->cap - 1);
    }
    if (!m->vals[i]) m->used++;
    m->keys[i] = key; m->vals[i] = val;
    m->live++;
    return 0;
}

static void cmap_del(cmap *m, long long key) {
    Py_ssize_t i = cmap_hash(key, m->cap);
    while (m->vals[i]) {
        if (m->vals[i] != TOMB && m->keys[i] == key) {
            m->vals[i] = TOMB;
            m->live--;
            return;
        }
        i = (i + 1) & (m->cap - 1);
    }
}

static int cheap_push(cheap *h, long long v) {
    Py_ssize_t i, p;
    if (h->len == h->cap) {
        Py_ssize_t cap = h->cap ? h->cap * 2 : 16;
        long long *ni = PyMem_Realloc(h->items, cap * sizeof(long long));
        if (!ni) { PyErr_NoMemory(); return -1; }
        h->items = ni; h->cap = cap;
    }
    i = h->len++;
    h->items[i] = v;
    while (i > 0) {
        p = (i - 1) / 2;
        if (h->items[p] <= h->items[i]) break;
        { long long tmp = h->items[p]; h->items[p] = h->items[i]; h->items[i] = tmp; }
        i = p;
    }
    return 0;
}

static long long cheap_pop(cheap *h) {
    long long top = h->items[0];
    Py_ssize_t i = 0, c;
    h->items[0] = h->items[--h->len];
    for (;;) {
        c = 2 * i + 1;
        if (c >= h->len) break;
        if (c + 1 < h->len && h->items[c + 1] < h->items[c]) c++;
        if (h->items[i] <= h->items[c]) break;
        { long long tmp = h->items[i]; h->items[i] = h->items[c]; h->items[c] = tmp; }
        i = c;
    }
    return top;
}

/* ---- calendar operations ----------------------------------------- */

static int cal_rebuild(Calendar *cal, double width);

/* push an entry; steals a reference to ev */
static int cal_push(Calendar *cal, double t, long long seq, PyObject *ev) {
    long long idx;
    cbucket *b;
    if (t >= FAR_TIME) {
        if (cal->far_len == cal->far_cap) {
            Py_ssize_t cap = cal->far_cap ? cal->far_cap * 2 : 8;
            centry *nf = PyMem_Realloc(cal->far, cap * sizeof(centry));
            if (!nf) { Py_DECREF(ev); PyErr_NoMemory(); return -1; }
            cal->far = nf; cal->far_cap = cap;
        }
        cal->far[cal->far_len].t = t;
        cal->far[cal->far_len].seq = seq;
        cal->far[cal->far_len].ev = ev;
        cal->far_len++;
        cal->nlen++;
        return 0;
    }
    idx = (long long)(t * cal->inv_width);
    b = cmap_get(&cal->map, idx);
    if (!b) {
        b = bucket_new();
        if (!b || cmap_set(&cal->map, idx, b) < 0 ||
            cheap_push(&cal->order, idx) < 0) {
            bucket_free(b); Py_DECREF(ev); return -1;
        }
    }
    if (bucket_insort(b, t, seq, ev) < 0) { Py_DECREF(ev); return -1; }
    cal->nlen++;
    if (b->len > SPILL_LIMIT) {
        /* emergency shrink: width too coarse for this cluster */
        double span = b->items[b->len - 1].t - b->items[0].t;
        if (span > 0.0) {
            double target = span / 8.0;
            if (target < MIN_WIDTH) target = MIN_WIDTH;
            if (target < cal->width * 0.5)
                return cal_rebuild(cal, target);
        }
    }
    return 0;
}

static int centry_cmp(const void *pa, const void *pb) {
    const centry *a = pa, *b = pb;
    if (a->t < b->t) return -1;
    if (a->t > b->t) return 1;
    if (a->seq < b->seq) return -1;
    if (a->seq > b->seq) return 1;
    return 0;
}

static int cal_rebuild(Calendar *cal, double width) {
    /* collect every bucketed entry, re-bucket at the new width */
    centry *all;
    cal->gen++;
    Py_ssize_t n = 0, i, j;
    cmap old = cal->map;
    all = PyMem_Malloc((cal->nlen ? cal->nlen : 1) * sizeof(centry));
    if (!all) { PyErr_NoMemory(); return -1; }
    for (i = 0; i < old.cap; i++) {
        cbucket *b = old.vals[i];
        if (b && b != TOMB)
            for (j = 0; j < b->len; j++) all[n++] = b->items[j];
    }
    qsort(all, n, sizeof(centry), centry_cmp);
    if (cmap_init(&cal->map, 64) < 0) { PyMem_Free(all); cal->map = old; return -1; }
    cal->order.len = 0;
    cal->width = width;
    cal->inv_width = 1.0 / width;
    for (i = 0; i < n; i++) {
        long long idx = (long long)(all[i].t * cal->inv_width);
        cbucket *b = cmap_get(&cal->map, idx);
        if (!b) {
            b = bucket_new();
            if (!b || cmap_set(&cal->map, idx, b) < 0 ||
                cheap_push(&cal->order, idx) < 0) {
                /* unrecoverable mid-rebuild OOM: leak-safe bail */
                bucket_free(b); PyMem_Free(all);
                cmap_free_buckets(&cal->map); cal->map = old;
                return -1;
            }
        }
        if (bucket_reserve(b, b->len + 1) < 0) {
            PyMem_Free(all); return -1;
        }
        b->items[b->len++] = all[i];   /* sorted input stays sorted */
    }
    /* old buckets: entries were moved, free shells only */
    for (i = 0; i < old.cap; i++)
        if (old.vals[i] && old.vals[i] != TOMB) {
            PyMem_Free(old.vals[i]->items);
            PyMem_Free(old.vals[i]);
        }
    PyMem_Free(old.keys); PyMem_Free(old.vals);
    PyMem_Free(all);
    return 0;
}

static void cal_window_retune(Calendar *cal, double t) {
    double last = cal->window_t;
    int had = cal->window_set;
    cal->window_t = t;
    cal->window_set = 1;
    cal->pop_count = 0;
    if (!had || !(t > last)) return;
    {
        double avg_gap = (t - last) / GAP_WINDOW;
        double target = avg_gap * 8.0;
        if (target < MIN_WIDTH) target = MIN_WIDTH;
        if (target > MAX_WIDTH) target = MAX_WIDTH;
        if (target < cal->width * 0.5 || target > cal->width * 2.0)
            cal_rebuild(cal, target);   /* OOM here leaves width as-is */
    }
}

/* min bucket with live entries, discarding drained shells; NULL when
 * no bucketed entries remain (check far separately) */
static cbucket *cal_top(Calendar *cal, long long *idx_out) {
    while (cal->order.len) {
        long long idx = cal->order.items[0];
        cbucket *b = cmap_get(&cal->map, idx);
        if (b && b->len) { *idx_out = idx; return b; }
        cheap_pop(&cal->order);
        if (b) { bucket_free(b); cmap_del(&cal->map, idx); }
    }
    return NULL;
}

static double cal_min_time(Calendar *cal) {
    long long idx;
    cbucket *b = cal_top(cal, &idx);
    if (b) return b->items[0].t;
    if (cal->far_len) {
        double t = cal->far[0].t;
        Py_ssize_t i;
        for (i = 1; i < cal->far_len; i++)
            if (cal->far[i].t < t) t = cal->far[i].t;
        return t;
    }
    return Py_HUGE_VAL;
}

/* pop every far entry at the minimum far time into a fresh list of
 * (t, seq, ev) tuples, ascending seq (push order among equal seqs);
 * transfers refs into the list.  Quadratic in the batch, but the far
 * list only holds t >= FAR_TIME entries, which simulations never reach */
static PyObject *cal_pop_far(Calendar *cal, double *t_out) {
    double t = cal->far[0].t;
    Py_ssize_t i, j, k;
    PyObject *list;
    for (i = 1; i < cal->far_len; i++)
        if (cal->far[i].t < t) t = cal->far[i].t;
    list = PyList_New(0);
    if (!list) return NULL;
    for (;;) {
        PyObject *tup;
        k = -1;
        for (i = 0; i < cal->far_len; i++)
            if (cal->far[i].t == t && (k < 0 || cal->far[i].seq < cal->far[k].seq))
                k = i;
        if (k < 0) break;
        tup = Py_BuildValue("(dLN)", cal->far[k].t, cal->far[k].seq,
                            cal->far[k].ev);
        if (!tup || PyList_Append(list, tup) < 0) {
            Py_XDECREF(tup); Py_DECREF(list); return NULL;
        }
        Py_DECREF(tup);
        /* remove, preserving order of the remainder */
        for (j = k; j < cal->far_len - 1; j++) cal->far[j] = cal->far[j + 1];
        cal->far_len--;
        cal->nlen--;
    }
    *t_out = t;
    return list;
}

/* ========================= Event ================================== */

typedef struct {
    PyObject_HEAD
    PyObject *env;        /* Environment (borrowed cycle; GC-tracked) */
    PyObject *callbacks;  /* list | None */
    PyObject *value;      /* PENDING sentinel until triggered */
    PyObject *info;       /* tuple | None */
    char ok;
    char scheduled;
} CEvent;

typedef struct {
    CEvent base;
    PyObject *target;
    PyObject *fn;
} CEcho;

typedef struct {
    CEvent base;
    double delay;
    PyObject *pending_value;
} CTimeout;

typedef struct {
    CEvent base;
    PyObject *generator;
    PyObject *waiting_on;  /* Event | None */
    PyObject *name;
    PyObject *resume_cb;   /* cached bound _resume */
    long long pid;
    double last_resumed_at;
} CProcess;

/* Environment: declared here because Event methods touch it */
typedef struct {
    PyObject_HEAD
    double now;
    long long seq;
    long long event_count;
    PyObject *cal;          /* Calendar */
    PyObject *nowq;         /* list of (t, seq, ev) tuples */
    PyObject *batch;        /* list of (t, seq, ev) tuples */
    Py_ssize_t now_head;
    Py_ssize_t batch_head;
    PyObject *active_process;   /* Process | None */
    PyObject *policy;           /* None = fast path */
    PyObject *sched_log;        /* list[int] */
    PyObject *sched_fanout;     /* list[int] */
    PyObject *flight;           /* None | recorder */
    PyObject *procs;            /* list[Process] */
    long long next_pid;
    Py_ssize_t procs_prune_at;
} CEnv;

static int env_schedule_now(CEnv *env, PyObject *ev) {
    /* delay-0 schedule: append (now, ++seq, ev) to the now-queue */
    PyObject *tup;
    env->seq += 1;
    tup = Py_BuildValue("(dLO)", env->now, env->seq, ev);
    if (!tup) return -1;
    if (PyList_Append(env->nowq, tup) < 0) { Py_DECREF(tup); return -1; }
    Py_DECREF(tup);
    return 0;
}

/* full _schedule: double-schedule check, negative-delay check, route */
static int env_schedule(CEnv *env, CEvent *ev, double delay) {
    if (ev->scheduled) {
        PyErr_Format(SimulationError, "%R scheduled twice", ev);
        return -1;
    }
    if (delay < 0) {
        PyObject *d = PyFloat_FromDouble(delay);
        PyObject *n = PyFloat_FromDouble(env->now);
        if (d && n)
            PyErr_Format(ConfigError,
                "schedule() got negative delay %R; events cannot be "
                "scheduled in the past (now=%S)", d, n);
        Py_XDECREF(d); Py_XDECREF(n);
        return -1;
    }
    ev->scheduled = 1;
    {
        double t = env->now + delay;
        if (t > env->now) {
            env->seq += 1;
            Py_INCREF(ev);
            return cal_push((Calendar *)env->cal, t, env->seq, (PyObject *)ev);
        }
    }
    return env_schedule_now(env, (PyObject *)ev);
}

static int Event_traverse(CEvent *self, visitproc visit, void *arg) {
    Py_VISIT(self->env);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    Py_VISIT(self->info);
    return 0;
}

static int Event_clear_slots(CEvent *self) {
    Py_CLEAR(self->env);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    Py_CLEAR(self->info);
    return 0;
}

static void Event_dealloc(CEvent *self) {
    PyObject_GC_UnTrack(self);
    Event_clear_slots(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int Event_init(CEvent *self, PyObject *args, PyObject *kwds) {
    PyObject *env;
    static char *kwlist[] = {"env", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!", kwlist,
                                     &EnvironmentType, &env))
        return -1;
    Py_INCREF(env);
    Py_XSETREF(self->env, env);
    Py_XSETREF(self->callbacks, PyList_New(0));
    if (!self->callbacks) return -1;
    Py_INCREF(PENDING);
    Py_XSETREF(self->value, PENDING);
    Py_INCREF(Py_None);
    Py_XSETREF(self->info, Py_None);
    self->ok = 1;
    self->scheduled = 0;
    return 0;
}

static PyObject *Event_get_triggered(CEvent *self, void *closure) {
    return PyBool_FromLong(self->value != PENDING);
}

static PyObject *Event_get_processed(CEvent *self, void *closure) {
    return PyBool_FromLong(self->callbacks == Py_None || self->callbacks == NULL);
}

static PyObject *Event_get_ok(CEvent *self, void *closure) {
    if (self->value == PENDING) {
        PyErr_SetString(SimulationError, "event value not yet available");
        return NULL;
    }
    return PyBool_FromLong(self->ok);
}

static PyObject *Event_get_value(CEvent *self, void *closure) {
    if (self->value == PENDING) {
        PyErr_SetString(SimulationError, "event value not yet available");
        return NULL;
    }
    Py_INCREF(self->value);
    return self->value;
}

static PyObject *Event_repr(CEvent *self) {
    const char *state =
        (self->callbacks == Py_None || self->callbacks == NULL) ? "processed"
        : (self->value != PENDING) ? "triggered" : "pending";
    return PyUnicode_FromFormat("<%s %s at %p>",
                                Py_TYPE(self)->tp_name, state, (void *)self);
}

static PyObject *Event_succeed(CEvent *self, PyObject *args, PyObject *kwds) {
    PyObject *value = Py_None;
    static char *kwlist[] = {"value", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &value))
        return NULL;
    if (self->value != PENDING) {
        PyErr_Format(SimulationError, "%R already triggered", self);
        return NULL;
    }
    if (self->scheduled) {
        PyErr_Format(SimulationError, "%R scheduled twice", self);
        return NULL;
    }
    Py_INCREF(value);
    Py_XSETREF(self->value, value);
    self->ok = 1;
    self->scheduled = 1;
    if (env_schedule_now((CEnv *)self->env, (PyObject *)self) < 0)
        return NULL;
    Py_INCREF(self);
    return (PyObject *)self;
}

static PyObject *Event_fail(CEvent *self, PyObject *exc) {
    if (self->value != PENDING) {
        PyErr_Format(SimulationError, "%R already triggered", self);
        return NULL;
    }
    if (!PyObject_IsInstance(exc, PyExc_BaseException)) {
        PyErr_Format(SimulationError, "fail() needs an exception, got %R", exc);
        return NULL;
    }
    Py_INCREF(exc);
    Py_XSETREF(self->value, exc);
    self->ok = 0;
    if (env_schedule((CEnv *)self->env, self, 0.0) < 0) return NULL;
    Py_INCREF(self);
    return (PyObject *)self;
}

static PyObject *Event_add_callback(CEvent *self, PyObject *fn) {
    if (self->callbacks == Py_None || self->callbacks == NULL) {
        /* already processed: deliver via a fresh _Echo at current time */
        PyObject *echo = PyObject_CallFunctionObjArgs(
            (PyObject *)&EchoType, self->env, (PyObject *)self, fn, NULL);
        if (!echo) return NULL;
        if (env_schedule((CEnv *)self->env, (CEvent *)echo, 0.0) < 0) {
            Py_DECREF(echo); return NULL;
        }
        Py_DECREF(echo);
    } else {
        if (PyList_Append(self->callbacks, fn) < 0) return NULL;
    }
    Py_RETURN_NONE;
}

static PyGetSetDef Event_getset[] = {
    {"triggered", (getter)Event_get_triggered, NULL,
     "True once the event has a value (succeeded or failed).", NULL},
    {"processed", (getter)Event_get_processed, NULL,
     "True once callbacks have run.", NULL},
    {"ok", (getter)Event_get_ok, NULL, NULL, NULL},
    {"value", (getter)Event_get_value, NULL, NULL, NULL},
    {NULL}
};

static PyMemberDef Event_members[] = {
    {"env", T_OBJECT, offsetof(CEvent, env), 0, NULL},
    {"callbacks", T_OBJECT, offsetof(CEvent, callbacks), 0, NULL},
    {"_value", T_OBJECT, offsetof(CEvent, value), 0, NULL},
    {"info", T_OBJECT, offsetof(CEvent, info), 0, NULL},
    {"_ok", T_BOOL, offsetof(CEvent, ok), 0, NULL},
    {"_scheduled", T_BOOL, offsetof(CEvent, scheduled), 0, NULL},
    {NULL}
};

static PyMethodDef Event_methods[] = {
    {"succeed", (PyCFunction)Event_succeed, METH_VARARGS | METH_KEYWORDS,
     "Trigger the event successfully with ``value``."},
    {"fail", (PyCFunction)Event_fail, METH_O,
     "Trigger the event with an exception."},
    {"_add_callback", (PyCFunction)Event_add_callback, METH_O, NULL},
    {NULL}
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Event",
    .tp_basicsize = sizeof(CEvent),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A one-shot occurrence that processes can wait on.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Event_init,
    .tp_dealloc = (destructor)Event_dealloc,
    .tp_traverse = (traverseproc)Event_traverse,
    .tp_clear = (inquiry)Event_clear_slots,
    .tp_repr = (reprfunc)Event_repr,
    .tp_getset = Event_getset,
    .tp_members = Event_members,
    .tp_methods = Event_methods,
};

/* ========================= _Echo ================================== */

static int Echo_traverse(CEcho *self, visitproc visit, void *arg) {
    Py_VISIT(self->target);
    Py_VISIT(self->fn);
    return Event_traverse(&self->base, visit, arg);
}

static int Echo_clear_slots(CEcho *self) {
    Py_CLEAR(self->target);
    Py_CLEAR(self->fn);
    return Event_clear_slots(&self->base);
}

static void Echo_dealloc(CEcho *self) {
    PyObject_GC_UnTrack(self);
    Echo_clear_slots(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int Echo_init(CEcho *self, PyObject *args, PyObject *kwds) {
    PyObject *env, *target, *fn;
    static char *kwlist[] = {"env", "target", "fn", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!OO", kwlist,
                                     &EnvironmentType, &env, &target, &fn))
        return -1;
    {
        PyObject *ia = PyTuple_Pack(1, env);
        int rc;
        if (!ia) return -1;
        rc = Event_init(&self->base, ia, NULL);
        Py_DECREF(ia);
        if (rc < 0) return -1;
    }
    Py_INCREF(target);
    Py_XSETREF(self->target, target);
    Py_INCREF(fn);
    Py_XSETREF(self->fn, fn);
    Py_INCREF(Py_None);          /* pre-triggered */
    Py_XSETREF(self->base.value, Py_None);
    return 0;
}

/* consume: callbacks = None; fn(target) */
static PyObject *Echo_process(CEcho *self, PyObject *noarg) {
    PyObject *res;
    Py_INCREF(Py_None);
    Py_XSETREF(self->base.callbacks, Py_None);
    res = PyObject_CallFunctionObjArgs(self->fn, self->target, NULL);
    if (!res) return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

static PyMemberDef Echo_members[] = {
    {"_target", T_OBJECT, offsetof(CEcho, target), 0, NULL},
    {"_fn", T_OBJECT, offsetof(CEcho, fn), 0, NULL},
    {NULL}
};

static PyMethodDef Echo_methods[] = {
    {"_process", (PyCFunction)Echo_process, METH_NOARGS, NULL},
    {NULL}
};

static PyTypeObject EchoType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore._Echo",
    .tp_basicsize = sizeof(CEcho),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Internal: re-delivers an already-processed event to a late waiter.",
    .tp_base = &EventType,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Echo_init,
    .tp_dealloc = (destructor)Echo_dealloc,
    .tp_traverse = (traverseproc)Echo_traverse,
    .tp_clear = (inquiry)Echo_clear_slots,
    .tp_members = Echo_members,
    .tp_methods = Echo_methods,
};

/* ========================= Timeout ================================ */

static int Timeout_traverse(CTimeout *self, visitproc visit, void *arg) {
    Py_VISIT(self->pending_value);
    return Event_traverse(&self->base, visit, arg);
}

static int Timeout_clear_slots(CTimeout *self) {
    Py_CLEAR(self->pending_value);
    return Event_clear_slots(&self->base);
}

static void Timeout_dealloc(CTimeout *self) {
    PyObject_GC_UnTrack(self);
    Timeout_clear_slots(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int Timeout_init(CTimeout *self, PyObject *args, PyObject *kwds) {
    PyObject *envobj, *value = Py_None;
    CEnv *env;
    double delay;
    static char *kwlist[] = {"env", "delay", "value", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!d|O", kwlist,
                                     &EnvironmentType, &envobj, &delay, &value))
        return -1;
    if (delay < 0) {
        PyObject *d = PyFloat_FromDouble(delay);
        if (d) {
            PyErr_Format(SimulationError, "negative timeout delay %R", d);
            Py_DECREF(d);
        }
        return -1;
    }
    env = (CEnv *)envobj;
    Py_INCREF(envobj);
    Py_XSETREF(self->base.env, envobj);
    Py_XSETREF(self->base.callbacks, PyList_New(0));
    if (!self->base.callbacks) return -1;
    Py_INCREF(PENDING);
    Py_XSETREF(self->base.value, PENDING);
    Py_INCREF(Py_None);
    Py_XSETREF(self->base.info, Py_None);
    self->base.ok = 1;
    self->base.scheduled = 1;
    self->delay = delay;
    Py_INCREF(value);
    Py_XSETREF(self->pending_value, value);
    /* route on the computed time (underflow-safe), same as the pure
     * engine: strictly-future -> calendar, else now-queue */
    {
        double t = env->now + delay;
        if (t > env->now) {
            env->seq += 1;
            Py_INCREF(self);
            return cal_push((Calendar *)env->cal, t, env->seq,
                            (PyObject *)self);
        }
    }
    return env_schedule_now(env, (PyObject *)self);
}

static PyMemberDef Timeout_members[] = {
    {"delay", T_DOUBLE, offsetof(CTimeout, delay), 0, NULL},
    {"_pending_value", T_OBJECT, offsetof(CTimeout, pending_value), 0, NULL},
    {NULL}
};

static PyTypeObject TimeoutType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Timeout",
    .tp_basicsize = sizeof(CTimeout),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "An event that triggers ``delay`` nanoseconds after creation.",
    .tp_base = &EventType,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Timeout_init,
    .tp_dealloc = (destructor)Timeout_dealloc,
    .tp_traverse = (traverseproc)Timeout_traverse,
    .tp_clear = (inquiry)Timeout_clear_slots,
    .tp_members = Timeout_members,
};

/* ========================= Process ================================ */

static int Process_traverse(CProcess *self, visitproc visit, void *arg) {
    Py_VISIT(self->generator);
    Py_VISIT(self->waiting_on);
    Py_VISIT(self->name);
    Py_VISIT(self->resume_cb);
    return Event_traverse(&self->base, visit, arg);
}

static int Process_clear_slots(CProcess *self) {
    Py_CLEAR(self->generator);
    Py_CLEAR(self->waiting_on);
    Py_CLEAR(self->name);
    Py_CLEAR(self->resume_cb);
    return Event_clear_slots(&self->base);
}

static void Process_dealloc(CProcess *self) {
    PyObject_GC_UnTrack(self);
    Process_clear_slots(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static long long env_register_process(CEnv *env, PyObject *proc);

static int Process_init(CProcess *self, PyObject *args, PyObject *kwds) {
    PyObject *envobj, *generator, *name = NULL;
    CEnv *env;
    static char *kwlist[] = {"env", "generator", "name", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O|U", kwlist,
                                     &EnvironmentType, &envobj,
                                     &generator, &name))
        return -1;
    if (!PyObject_HasAttrString(generator, "send")) {
        PyErr_Format(SimulationError,
                     "process target must be a generator, got %R", generator);
        return -1;
    }
    {
        PyObject *ia = PyTuple_Pack(1, envobj);
        int rc;
        if (!ia) return -1;
        rc = Event_init(&self->base, ia, NULL);
        Py_DECREF(ia);
        if (rc < 0) return -1;
    }
    env = (CEnv *)envobj;
    Py_INCREF(generator);
    Py_XSETREF(self->generator, generator);
    Py_INCREF(Py_None);
    Py_XSETREF(self->waiting_on, Py_None);
    if (name && PyUnicode_GET_LENGTH(name) > 0) {
        Py_INCREF(name);
        Py_XSETREF(self->name, name);
    } else {
        PyObject *gname = PyObject_GetAttrString(generator, "__name__");
        if (!gname) {
            PyErr_Clear();
            gname = PyUnicode_FromString("process");
            if (!gname) return -1;
        }
        Py_XSETREF(self->name, gname);
    }
    self->pid = env_register_process(env, (PyObject *)self);
    if (self->pid < 0) return -1;
    self->last_resumed_at = env->now;
    {
        PyObject *cb = PyObject_GetAttrString((PyObject *)self, "_resume");
        if (!cb) return -1;
        Py_XSETREF(self->resume_cb, cb);
    }
    /* kick off at the current time via a pre-triggered boot event */
    {
        PyObject *boot = PyObject_CallFunctionObjArgs(
            (PyObject *)&EventType, envobj, NULL);
        if (!boot) return -1;
        Py_INCREF(Py_None);
        Py_XSETREF(((CEvent *)boot)->value, Py_None);
        ((CEvent *)boot)->ok = 1;
        if (env_schedule(env, (CEvent *)boot, 0.0) < 0 ||
            PyList_Append(((CEvent *)boot)->callbacks, self->resume_cb) < 0) {
            Py_DECREF(boot);
            return -1;
        }
        Py_DECREF(boot);
    }
    return 0;
}

static PyObject *Process_get_is_alive(CProcess *self, void *closure) {
    return PyBool_FromLong(self->base.value == PENDING);
}

static PyObject *Process_repr(CProcess *self) {
    return PyUnicode_FromFormat("<Process %R %s>", self->name,
        self->base.value == PENDING ? "alive" : "done");
}

static PyObject *Process_interrupt(CProcess *self, PyObject *args, PyObject *kwds) {
    PyObject *cause = Py_None;
    static char *kwlist[] = {"cause", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &cause))
        return NULL;
    if (self->base.value != PENDING)
        Py_RETURN_NONE;                         /* already finished */
    {
        PyObject *target = self->waiting_on;
        if (target != Py_None) {
            PyObject *cbs = ((CEvent *)target)->callbacks;
            if (cbs && cbs != Py_None) {
                PyObject *r = PyObject_CallMethod(cbs, "remove", "O",
                                                  self->resume_cb);
                if (!r) {
                    if (PyErr_ExceptionMatches(PyExc_ValueError))
                        PyErr_Clear();
                    else
                        return NULL;
                } else Py_DECREF(r);
            }
        }
    }
    Py_INCREF(Py_None);
    Py_XSETREF(self->waiting_on, Py_None);
    {
        PyObject *kick = PyObject_CallFunctionObjArgs(
            (PyObject *)&EventType, self->base.env, NULL);
        PyObject *intr;
        if (!kick) return NULL;
        intr = PyObject_CallFunctionObjArgs(InterruptExc, cause, NULL);
        if (!intr) { Py_DECREF(kick); return NULL; }
        Py_XSETREF(((CEvent *)kick)->value, intr);
        ((CEvent *)kick)->ok = 0;
        if (env_schedule((CEnv *)self->base.env, (CEvent *)kick, 0.0) < 0 ||
            PyList_Append(((CEvent *)kick)->callbacks, self->resume_cb) < 0) {
            Py_DECREF(kick);
            return NULL;
        }
        Py_DECREF(kick);
    }
    Py_RETURN_NONE;
}

/* The generator-driving loop.  Mirrors _engine.Process._resume. */
static PyObject *Process_resume(CProcess *self, PyObject *eventobj) {
    CEnv *env = (CEnv *)self->base.env;
    PyObject *gen = self->generator;
    CEvent *event = (CEvent *)eventobj;
    PyObject *result = NULL;
    Py_INCREF(Py_None);
    Py_XSETREF(self->waiting_on, Py_None);
    self->last_resumed_at = env->now;
    Py_INCREF((PyObject *)self);
    Py_XSETREF(env->active_process, (PyObject *)self);
    Py_INCREF(eventobj);            /* `event` may be rebound below */
    for (;;) {
        PyObject *target;
        if (event->ok) {
            PySendResult sr = PyIter_Send(gen, event->value, &target);
            if (sr == PYGEN_RETURN) {
                /* StopIteration: the process finished */
                self->base.ok = 1;
                Py_XSETREF(self->base.value, target);   /* steals */
                Py_DECREF((PyObject *)event);
                if (env_schedule(env, &self->base, 0.0) < 0) goto error_done;
                goto done_ok;
            }
            if (sr == PYGEN_ERROR) { Py_DECREF((PyObject *)event); goto excpath; }
        } else {
            target = PyObject_CallMethod(gen, "throw", "O", event->value);
            if (!target) {
                if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
                    PyObject *etype, *evalue, *etb, *retval = Py_None;
                    PyErr_Fetch(&etype, &evalue, &etb);
                    if (evalue) {
                        retval = ((PyStopIterationObject *)evalue)->value;
                        if (!retval) retval = Py_None;
                    }
                    Py_INCREF(retval);
                    Py_XDECREF(etype); Py_XDECREF(evalue); Py_XDECREF(etb);
                    self->base.ok = 1;
                    Py_XSETREF(self->base.value, retval);
                    Py_DECREF((PyObject *)event);
                    if (env_schedule(env, &self->base, 0.0) < 0) goto error_done;
                    goto done_ok;
                }
                Py_DECREF((PyObject *)event);
                goto excpath;
            }
        }
        Py_DECREF((PyObject *)event);
        if (!PyObject_TypeCheck(target, &EventType)) {
            PyErr_Format(SimulationError,
                         "process %R yielded non-event %R", self->name, target);
            Py_DECREF(target);
            goto excpath;
        }
        {
            CEvent *tev = (CEvent *)target;
            if (tev->value == PENDING ||
                (tev->callbacks && tev->callbacks != Py_None)) {
                /* pending, or triggered but not yet processed: park */
                Py_INCREF(target);
                Py_XSETREF(self->waiting_on, target);
                if (PyList_Append(tev->callbacks, self->resume_cb) < 0) {
                    Py_DECREF(target);
                    goto excpath;
                }
                Py_DECREF(target);
                goto done_ok;
            }
        }
        event = (CEvent *)target;      /* already processed: consume now */
    }
excpath:
    /* an exception escaped the generator (or parking failed): the
     * process fails with it, re-raising only non-Exception kinds */
    {
        PyObject *etype, *evalue, *etb;
        PyErr_Fetch(&etype, &evalue, &etb);
        PyErr_NormalizeException(&etype, &evalue, &etb);
        if (etb) PyException_SetTraceback(evalue, etb);
        if (PyErr_GivenExceptionMatches(evalue, InterruptExc)) {
            self->base.ok = 0;
            Py_INCREF(evalue);
            Py_XSETREF(self->base.value, evalue);
            Py_XDECREF(etype); Py_XDECREF(evalue); Py_XDECREF(etb);
            if (env_schedule(env, &self->base, 0.0) < 0) goto error_done;
        } else {
            self->base.ok = 0;
            Py_INCREF(evalue);
            Py_XSETREF(self->base.value, evalue);
            if (env_schedule(env, &self->base, 0.0) < 0) {
                Py_XDECREF(etype); Py_XDECREF(evalue); Py_XDECREF(etb);
                goto error_done;
            }
            if (!PyErr_GivenExceptionMatches(evalue, PyExc_Exception)) {
                PyErr_Restore(etype, evalue, etb);   /* KeyboardInterrupt etc. */
                goto error_done;
            }
            Py_XDECREF(etype); Py_XDECREF(evalue); Py_XDECREF(etb);
        }
    }
done_ok:
    result = Py_None;
    Py_INCREF(result);
error_done:
    Py_INCREF(Py_None);
    Py_XSETREF(env->active_process, Py_None);
    return result;
}

static PyGetSetDef Process_getset[] = {
    {"is_alive", (getter)Process_get_is_alive, NULL, NULL, NULL},
    {NULL}
};

static PyMemberDef Process_members[] = {
    {"_generator", T_OBJECT, offsetof(CProcess, generator), 0, NULL},
    {"_waiting_on", T_OBJECT, offsetof(CProcess, waiting_on), 0, NULL},
    {"name", T_OBJECT, offsetof(CProcess, name), 0, NULL},
    {"_resume_cb", T_OBJECT, offsetof(CProcess, resume_cb), READONLY, NULL},
    {"pid", T_LONGLONG, offsetof(CProcess, pid), 0, NULL},
    {"last_resumed_at", T_DOUBLE, offsetof(CProcess, last_resumed_at), 0, NULL},
    {NULL}
};

static PyMethodDef Process_methods[] = {
    {"interrupt", (PyCFunction)Process_interrupt, METH_VARARGS | METH_KEYWORDS,
     "Throw Interrupt into the process at its current yield."},
    {"_resume", (PyCFunction)Process_resume, METH_O, NULL},
    {NULL}
};

static PyTypeObject ProcessType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Process",
    .tp_basicsize = sizeof(CProcess),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Wraps a generator; the process is an event that triggers "
              "when the generator returns or raises.",
    .tp_base = &EventType,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Process_init,
    .tp_dealloc = (destructor)Process_dealloc,
    .tp_traverse = (traverseproc)Process_traverse,
    .tp_clear = (inquiry)Process_clear_slots,
    .tp_repr = (reprfunc)Process_repr,
    .tp_getset = Process_getset,
    .tp_members = Process_members,
    .tp_methods = Process_methods,
};

/* ==================== CalendarQueue (Python type) ================= */

static int Calendar_traverse(Calendar *self, visitproc visit, void *arg) {
    Py_ssize_t i, j;
    for (i = 0; i < self->map.cap; i++) {
        cbucket *b = self->map.vals[i];
        if (b && b != TOMB)
            for (j = 0; j < b->len; j++) Py_VISIT(b->items[j].ev);
    }
    for (i = 0; i < self->far_len; i++) Py_VISIT(self->far[i].ev);
    return 0;
}

static int Calendar_clear_slots(Calendar *self) {
    Py_ssize_t i;
    cmap old = self->map;
    centry *far = self->far;
    Py_ssize_t far_len = self->far_len;
    /* detach first: bucket_free decrefs can re-enter */
    if (cmap_init(&self->map, 8) < 0) PyErr_Clear();
    self->order.len = 0;
    self->far = NULL; self->far_len = 0; self->far_cap = 0;
    self->nlen = 0;
    cmap_free_buckets(&old);
    for (i = 0; i < far_len; i++) Py_XDECREF(far[i].ev);
    PyMem_Free(far);
    return 0;
}

static void Calendar_dealloc(Calendar *self) {
    PyObject_GC_UnTrack(self);
    Calendar_clear_slots(self);
    PyMem_Free(self->map.keys); PyMem_Free(self->map.vals);
    PyMem_Free(self->order.items);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int Calendar_init(Calendar *self, PyObject *args, PyObject *kwds) {
    double width = 128.0;
    static char *kwlist[] = {"width", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|d", kwlist, &width))
        return -1;
    if (!(width > 0.0)) {
        PyObject *w = PyFloat_FromDouble(width);
        if (w) {
            PyErr_Format(ConfigError,
                         "calendar bucket width must be positive, got %R", w);
            Py_DECREF(w);
        }
        return -1;
    }
    if (self->map.cap == 0 && cmap_init(&self->map, 64) < 0) return -1;
    self->width = width;
    self->inv_width = 1.0 / width;
    self->nlen = 0;
    self->pop_count = 0;
    self->window_set = 0;
    self->gen = 0;
    return 0;
}

static Py_ssize_t Calendar_len(Calendar *self) { return self->nlen; }

static PyObject *Calendar_push(Calendar *self, PyObject *args) {
    double t;
    long long seq;
    PyObject *ev;
    if (!PyArg_ParseTuple(args, "dLO", &t, &seq, &ev)) return NULL;
    Py_INCREF(ev);
    if (cal_push(self, t, seq, ev) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *Calendar_min_time(Calendar *self, PyObject *noarg) {
    return PyFloat_FromDouble(cal_min_time(self));
}

/* (t, [(t, seq, ev), ...]) for the minimum-time tick */
static PyObject *Calendar_pop_batch(Calendar *self, PyObject *noarg) {
    long long idx;
    cbucket *b = cal_top(self, &idx);
    if (b) {
        double t = b->items[0].t;
        Py_ssize_t m = 1, i;
        PyObject *list, *result;
        while (m < b->len && b->items[m].t == t) m++;
        list = PyList_New(m);
        if (!list) return NULL;
        for (i = 0; i < m; i++) {
            PyObject *tup = Py_BuildValue("(dLN)", b->items[i].t,
                                          b->items[i].seq, b->items[i].ev);
            if (!tup) {
                /* entries i..m-1 still owned by the bucket; the ones
                 * already moved live in the list */
                while (i < m) { b->items[i] = b->items[i]; i++; }
                Py_DECREF(list);
                return NULL;
            }
            PyList_SET_ITEM(list, i, tup);
        }
        memmove(b->items, b->items + m, (b->len - m) * sizeof(centry));
        b->len -= m;
        self->nlen -= m;
        self->pop_count++;
        if (self->pop_count >= GAP_WINDOW)
            cal_window_retune(self, t);
        result = Py_BuildValue("(dN)", t, list);
        return result;
    }
    if (self->far_len) {
        double t;
        PyObject *list = cal_pop_far(self, &t);
        if (!list) return NULL;
        return Py_BuildValue("(dN)", t, list);
    }
    PyErr_SetString(SimulationError, "pop_batch() on an empty calendar");
    return NULL;
}

static PyObject *Calendar_get_width(Calendar *self, void *closure) {
    return PyFloat_FromDouble(self->width);
}

static PySequenceMethods Calendar_as_sequence = {
    .sq_length = (lenfunc)Calendar_len,
};

static PyGetSetDef Calendar_getset[] = {
    {"width", (getter)Calendar_get_width, NULL,
     "Current bucket width in nanoseconds (auto-tuned).", NULL},
    {NULL}
};

static PyMethodDef Calendar_methods[] = {
    {"push", (PyCFunction)Calendar_push, METH_VARARGS, NULL},
    {"min_time", (PyCFunction)Calendar_min_time, METH_NOARGS,
     "Earliest entry time, or +inf when empty."},
    {"pop_batch", (PyCFunction)Calendar_pop_batch, METH_NOARGS,
     "Remove and return (t, entries) for the minimum time t."},
    {NULL}
};

static PyTypeObject CalendarType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.CalendarQueue",
    .tp_basicsize = sizeof(Calendar),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Calendar/ladder priority queue over (time, seq, event).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Calendar_init,
    .tp_dealloc = (destructor)Calendar_dealloc,
    .tp_traverse = (traverseproc)Calendar_traverse,
    .tp_clear = (inquiry)Calendar_clear_slots,
    .tp_as_sequence = &Calendar_as_sequence,
    .tp_getset = Calendar_getset,
    .tp_methods = Calendar_methods,
};

/* ==================== Environment helpers ========================= */

static long long env_register_process(CEnv *env, PyObject *proc) {
    env->next_pid += 1;
    if (PyList_Append(env->procs, proc) < 0) PyErr_Clear();
    if (PyList_GET_SIZE(env->procs) >= env->procs_prune_at) {
        Py_ssize_t i, n = PyList_GET_SIZE(env->procs);
        PyObject *kept = PyList_New(0);
        if (kept) {
            for (i = 0; i < n; i++) {
                PyObject *po = PyList_GET_ITEM(env->procs, i);
                if (((CEvent *)po)->value == PENDING &&
                    PyList_Append(kept, po) < 0) {
                    Py_DECREF(kept); kept = NULL; break;
                }
            }
        }
        if (kept) {
            Py_SETREF(env->procs, kept);
        } else {
            PyErr_Clear();  /* allocation failure: skip this prune */
        }
        {
            Py_ssize_t keep = PyList_GET_SIZE(env->procs);
            Py_ssize_t floor_ = 2 * keep + 1;
            env->procs_prune_at = floor_ > 64 ? floor_ : 64;
        }
    }
    return env->next_pid;
}

/* Dispatch one triggered event: Timeout value swap, Echo fan-out,
 * then run its callbacks.  Mirrors the pure drain's inline dispatch. */
static int env_dispatch(CEnv *env, PyObject *evo) {
    CEvent *ev = (CEvent *)evo;
    PyObject *cbs;
    if (Py_TYPE(evo) == &TimeoutType) {
        CTimeout *to = (CTimeout *)evo;
        Py_SETREF(ev->value, to->pending_value);
        to->pending_value = NULL;
    } else if (Py_TYPE(evo) == &EchoType) {
        PyObject *r = Echo_process((CEcho *)evo, NULL);
        if (!r) return -1;
        Py_DECREF(r);
        return 0;
    } else if (Py_TYPE(evo) != &EventType) {
        /* subclass fallback, mirroring the pure drain's isinstance path */
        if (PyObject_TypeCheck(evo, &EchoType)) {
            PyObject *r = Echo_process((CEcho *)evo, NULL);
            if (!r) return -1;
            Py_DECREF(r);
            return 0;
        }
        if (PyObject_TypeCheck(evo, &TimeoutType)) {
            CTimeout *to = (CTimeout *)evo;
            Py_SETREF(ev->value, to->pending_value);
            to->pending_value = NULL;
        }
    }
    cbs = ev->callbacks;
    if (cbs == NULL || cbs == Py_None) {
        ev->callbacks = Py_None;
        Py_INCREF(Py_None);
        Py_XDECREF(cbs);
        return 0;
    }
    ev->callbacks = Py_None;
    Py_INCREF(Py_None);
    {
        Py_ssize_t i, n = PyList_GET_SIZE(cbs);
        for (i = 0; i < n; i++) {
            PyObject *cb = PyList_GET_ITEM(cbs, i);
            PyObject *r = PyObject_CallOneArg(cb, evo);
            if (!r) { Py_DECREF(cbs); return -1; }
            Py_DECREF(r);
        }
    }
    Py_DECREF(cbs);
    return 0;
}

/* ==================== Environment (Python type) =================== */

static int Env_traverse(CEnv *self, visitproc visit, void *arg) {
    Py_VISIT(self->cal);
    Py_VISIT(self->nowq);
    Py_VISIT(self->batch);
    Py_VISIT(self->active_process);
    Py_VISIT(self->policy);
    Py_VISIT(self->sched_log);
    Py_VISIT(self->sched_fanout);
    Py_VISIT(self->flight);
    Py_VISIT(self->procs);
    return 0;
}

static int Env_clear_slots(CEnv *self) {
    Py_CLEAR(self->cal);
    Py_CLEAR(self->nowq);
    Py_CLEAR(self->batch);
    Py_CLEAR(self->active_process);
    Py_CLEAR(self->policy);
    Py_CLEAR(self->sched_log);
    Py_CLEAR(self->sched_fanout);
    Py_CLEAR(self->flight);
    Py_CLEAR(self->procs);
    return 0;
}

static void Env_dealloc(CEnv *self) {
    PyObject_GC_UnTrack(self);
    Env_clear_slots(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int Env_init(CEnv *self, PyObject *args, PyObject *kwds) {
    double initial_time = 0.0;
    static char *kwlist[] = {"initial_time", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|d", kwlist, &initial_time))
        return -1;
    self->now = initial_time;
    self->seq = 0;
    self->event_count = 0;
    self->now_head = 0;
    self->batch_head = 0;
    self->next_pid = 0;
    self->procs_prune_at = 64;
    {
        PyObject *cal = PyObject_CallNoArgs((PyObject *)&CalendarType);
        if (!cal) return -1;
        Py_XSETREF(self->cal, cal);
    }
    Py_XSETREF(self->nowq, PyList_New(0));
    Py_XSETREF(self->batch, PyList_New(0));
    Py_XSETREF(self->sched_log, PyList_New(0));
    Py_XSETREF(self->sched_fanout, PyList_New(0));
    Py_XSETREF(self->procs, PyList_New(0));
    if (!self->nowq || !self->batch || !self->sched_log ||
        !self->sched_fanout || !self->procs)
        return -1;
    Py_INCREF(Py_None); Py_XSETREF(self->active_process, Py_None);
    Py_INCREF(Py_None); Py_XSETREF(self->policy, Py_None);
    Py_INCREF(Py_None); Py_XSETREF(self->flight, Py_None);
    return 0;
}

/* -- properties ---------------------------------------------------- */

static PyObject *Env_get_now(CEnv *self, void *c) {
    return PyFloat_FromDouble(self->now);
}
static PyObject *Env_get_event_count(CEnv *self, void *c) {
    return PyLong_FromLongLong(self->event_count);
}
static PyObject *Env_get_active_process(CEnv *self, void *c) {
    Py_INCREF(self->active_process);
    return self->active_process;
}
static PyObject *Env_get_sched_log(CEnv *self, void *c) {
    Py_INCREF(self->sched_log);
    return self->sched_log;
}
static PyObject *Env_get_sched_fanout(CEnv *self, void *c) {
    Py_INCREF(self->sched_fanout);
    return self->sched_fanout;
}

/* -- factories ------------------------------------------------------ */

static PyObject *Env_event(CEnv *self, PyObject *noarg) {
    return PyObject_CallFunctionObjArgs((PyObject *)&EventType,
                                        (PyObject *)self, NULL);
}

static PyObject *Env_timeout(CEnv *self, PyObject *args, PyObject *kwds) {
    PyObject *delay, *value = Py_None;
    static char *kwlist[] = {"delay", "value", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O", kwlist,
                                     &delay, &value))
        return NULL;
    return PyObject_CallFunctionObjArgs((PyObject *)&TimeoutType,
                                        (PyObject *)self, delay, value, NULL);
}

static PyObject *Env_process(CEnv *self, PyObject *args, PyObject *kwds) {
    PyObject *generator, *name = NULL;
    static char *kwlist[] = {"generator", "name", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|U", kwlist,
                                     &generator, &name))
        return NULL;
    if (name)
        return PyObject_CallFunctionObjArgs((PyObject *)&ProcessType,
                                            (PyObject *)self, generator,
                                            name, NULL);
    return PyObject_CallFunctionObjArgs((PyObject *)&ProcessType,
                                        (PyObject *)self, generator, NULL);
}

/* -- scheduling ----------------------------------------------------- */

static PyObject *Env_schedule(CEnv *self, PyObject *args, PyObject *kwds) {
    PyObject *event;
    double delay = 0.0;
    static char *kwlist[] = {"event", "delay", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!|d", kwlist,
                                     &EventType, &event, &delay))
        return NULL;
    if (env_schedule(self, (CEvent *)event, delay) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *Env_has_work(CEnv *self, PyObject *noarg) {
    return PyBool_FromLong(
        self->batch_head < PyList_GET_SIZE(self->batch)
        || self->now_head < PyList_GET_SIZE(self->nowq)
        || ((Calendar *)self->cal)->nlen > 0);
}

/* Advance the clock to the calendar's minimum tick and install the
 * whole same-tick batch (as a list of (t, seq, ev) tuples). */
static int env_pull_batch(CEnv *self) {
    Calendar *cal = (Calendar *)self->cal;
    if (self->batch_head) {
        if (PyList_SetSlice(self->batch, 0, PY_SSIZE_T_MAX, NULL) < 0)
            return -1;
        self->batch_head = 0;
    }
    if (self->now_head) {
        if (PyList_SetSlice(self->nowq, 0, PY_SSIZE_T_MAX, NULL) < 0)
            return -1;
        self->now_head = 0;
    }
    {
        PyObject *pair = Calendar_pop_batch(cal, NULL);
        PyObject *entries;
        if (!pair) return -1;
        self->now = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(pair, 0));
        entries = PyTuple_GET_ITEM(pair, 1);
        Py_INCREF(entries);
        Py_SETREF(self->batch, entries);
        Py_DECREF(pair);
    }
    return 0;
}

static PyObject *Env_pull_batch(CEnv *self, PyObject *noarg) {
    if (env_pull_batch(self) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *Env_peek(CEnv *self, PyObject *noarg) {
    if (self->batch_head < PyList_GET_SIZE(self->batch)
        || self->now_head < PyList_GET_SIZE(self->nowq))
        return PyFloat_FromDouble(self->now);
    return PyFloat_FromDouble(cal_min_time((Calendar *)self->cal));
}

/* One no-policy step.  Policy steps live in the Python wrapper
 * (_compiled.Environment._step_policy) — cold by construction. */
static PyObject *Env_step(CEnv *self, PyObject *noarg) {
    PyObject *event;
    if (self->policy != Py_None)
        return PyObject_CallMethod((PyObject *)self, "_step_policy", NULL);
    if (self->batch_head < PyList_GET_SIZE(self->batch)) {
        PyObject *entry = PyList_GET_ITEM(self->batch, self->batch_head);
        self->batch_head += 1;
        event = PyTuple_GET_ITEM(entry, 2);
    } else if (self->now_head < PyList_GET_SIZE(self->nowq)) {
        PyObject *entry = PyList_GET_ITEM(self->nowq, self->now_head);
        self->now_head += 1;
        event = PyTuple_GET_ITEM(entry, 2);
    } else {
        if (((Calendar *)self->cal)->nlen == 0) {
            PyErr_SetString(SimulationError, "step() on an empty schedule");
            return NULL;
        }
        if (env_pull_batch(self) < 0) return NULL;
        self->batch_head = 1;
        event = PyTuple_GET_ITEM(PyList_GET_ITEM(self->batch, 0), 2);
    }
    self->event_count += 1;
    Py_INCREF(event);
    if (env_dispatch(self, event) < 0) { Py_DECREF(event); return NULL; }
    Py_DECREF(event);
    Py_RETURN_NONE;
}

/* The no-policy dispatch loop (the counterpart of the pure engine's
 * heap-pop loop, _engine.Environment._run_drain):
 * batch walk -> now-queue walk -> calendar pull, with singleton bucket
 * entries dispatched straight from C entries (no tuple materialized).
 * Heads and calendar counters are persisted on every exit path. */
static int env_run_drain(CEnv *self, double deadline) {
    PyObject *batch = self->batch;      /* borrowed aliases; batch is  */
    PyObject *nowq = self->nowq;        /* re-pointed on every pull    */
    Calendar *cal = (Calendar *)self->cal;
    Py_ssize_t bh = self->batch_head;
    Py_ssize_t nh = self->now_head;
    long long count = self->event_count;
    long long popped = 0;
    long long pops = cal->pop_count;
    int rc = 0;

    /* normalize consumed prefixes once */
    if (bh) {
        if (PyList_SetSlice(batch, 0, bh, NULL) < 0) { rc = -1; goto done; }
        bh = 0;
    }
    if (nh) {
        if (PyList_SetSlice(nowq, 0, nh, NULL) < 0) { rc = -1; goto done; }
        nh = 0;
    }
    for (;;) {
        if (PyList_GET_SIZE(batch)) {
            /* dispatch cannot grow the batch (new events go to the
             * calendar or the now-queue), so one length read is exact */
            Py_ssize_t n = PyList_GET_SIZE(batch);
            while (bh < n) {
                PyObject *ev = PyTuple_GET_ITEM(PyList_GET_ITEM(batch, bh), 2);
                bh++;
                count++;
                Py_INCREF(ev);
                if (env_dispatch(self, ev) < 0) {
                    Py_DECREF(ev); rc = -1; goto done;
                }
                Py_DECREF(ev);
            }
            if (PyList_SetSlice(batch, 0, PY_SSIZE_T_MAX, NULL) < 0) {
                rc = -1; goto done;
            }
            bh = 0;
        }
        if (PyList_GET_SIZE(nowq)) {
            /* the now-queue grows at its tail while we walk it */
            while (nh < PyList_GET_SIZE(nowq)) {
                PyObject *ev = PyTuple_GET_ITEM(PyList_GET_ITEM(nowq, nh), 2);
                nh++;
                count++;
                Py_INCREF(ev);
                if (env_dispatch(self, ev) < 0) {
                    Py_DECREF(ev); rc = -1; goto done;
                }
                Py_DECREF(ev);
            }
            if (PyList_SetSlice(nowq, 0, PY_SSIZE_T_MAX, NULL) < 0) {
                rc = -1; goto done;
            }
            nh = 0;
            continue;
        }
        /* -- pull the next same-tick batch from the calendar -- */
        if (cal->order.len == 0) {
            double t;
            PyObject *list;
            if (cal->far_len == 0) break;
            t = cal_min_time(cal);      /* rare: only far timeouts left */
            if (t > deadline) break;
            list = cal_pop_far(cal, &t);
            if (!list) { rc = -1; goto done; }
            self->now = t;
            Py_SETREF(self->batch, list);
            batch = list;
            bh = 0;
            continue;
        }
        {
            long long bidx = cal->order.items[0];
            cbucket *bucket = cmap_get(&cal->map, bidx);
            unsigned long g;
            if (!bucket || bucket->len == 0) {
                /* drained shell that was never re-armed: discard */
                cheap_pop(&cal->order);
                if (bucket) { bucket_free(bucket); cmap_del(&cal->map, bidx); }
                continue;
            }
            if (pops >= GAP_WINDOW) {
                /* retune between bucket runs only, so the run below
                 * never holds a bucket pointer across a rebuild */
                cal_window_retune(cal, bucket->items[0].t);
                pops = 0;
                continue;
            }
            g = cal->gen;
            /* -- bucket run: keep dispatching from this bucket while
             * each head entry is alone at its timestamp.  Time is
             * monotone, so a bucket re-armed by a dispatched callback
             * is still the global minimum. */
            for (;;) {
                centry entry = bucket->items[0];
                double t = entry.t;
                Py_ssize_t n;
                if (t > deadline) goto done;
                n = bucket->len;
                if (n > 1 && bucket->items[1].t == t) {
                    /* same-tick cluster: materialize the equal-time
                     * prefix as the next batch */
                    Py_ssize_t m = 2, i;
                    PyObject *list;
                    while (m < n && bucket->items[m].t == t) m++;
                    list = PyList_New(m);
                    if (!list) { rc = -1; goto done; }
                    for (i = 0; i < m; i++) {
                        PyObject *tup = Py_BuildValue(
                            "(dLO)", bucket->items[i].t,
                            bucket->items[i].seq, bucket->items[i].ev);
                        if (!tup) { Py_DECREF(list); rc = -1; goto done; }
                        PyList_SET_ITEM(list, i, tup);
                    }
                    for (i = 0; i < m; i++) Py_DECREF(bucket->items[i].ev);
                    if (m == n) {
                        bucket->len = 0;
                        cheap_pop(&cal->order);
                        cmap_del(&cal->map, bidx);
                        bucket_free(bucket);
                    } else {
                        memmove(bucket->items, bucket->items + m,
                                (n - m) * sizeof(centry));
                        bucket->len = n - m;
                    }
                    popped += m;
                    pops += 1;
                    self->now = t;
                    Py_SETREF(self->batch, list);
                    batch = list;
                    bh = 0;
                    break;
                }
                /* singleton: dispatch straight from the C entry (the
                 * bucket's ref transfers to this frame) */
                memmove(bucket->items, bucket->items + 1,
                        (n - 1) * sizeof(centry));
                bucket->len = n - 1;
                popped++;
                pops++;
                self->now = t;
                count++;
                if (env_dispatch(self, entry.ev) < 0) {
                    Py_DECREF(entry.ev); rc = -1; goto done;
                }
                Py_DECREF(entry.ev);
                /* leave the run when the now-queue has work, a rebuild
                 * replaced the buckets (gen bump), or this one drained;
                 * short-circuit keeps the stale pointer untouched */
                if (PyList_GET_SIZE(nowq) || cal->gen != g ||
                    bucket->len == 0)
                    break;
            }
        }
    }
done:
    self->event_count = count;
    self->batch_head = bh;
    self->now_head = nh;
    cal->nlen -= popped;
    cal->pop_count = pops;
    return rc;
}

static PyObject *Env_run(CEnv *self, PyObject *args, PyObject *kwds) {
    PyObject *until = Py_None;
    static char *kwlist[] = {"until", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &until))
        return NULL;
    if (until == Py_None) {
        if (self->policy != Py_None) {
            while (self->batch_head < PyList_GET_SIZE(self->batch)
                   || self->now_head < PyList_GET_SIZE(self->nowq)
                   || ((Calendar *)self->cal)->nlen > 0) {
                PyObject *r = PyObject_CallMethod((PyObject *)self,
                                                  "_step_policy", NULL);
                if (!r) return NULL;
                Py_DECREF(r);
            }
        } else if (env_run_drain(self, Py_HUGE_VAL) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if (PyObject_TypeCheck(until, &EventType)) {
        CEvent *stop = (CEvent *)until;
        while (stop->callbacks != Py_None && stop->callbacks != NULL) {
            PyObject *r;
            if (!(self->batch_head < PyList_GET_SIZE(self->batch)
                  || self->now_head < PyList_GET_SIZE(self->nowq)
                  || ((Calendar *)self->cal)->nlen > 0)) {
                PyObject *desc = PyObject_CallMethod(
                    (PyObject *)self, "describe_alive", NULL);
                if (!desc) return NULL;
                PyErr_Format(SimulationError,
                             "schedule drained before the awaited event "
                             "triggered (deadlock?); %S", desc);
                Py_DECREF(desc);
                return NULL;
            }
            r = Env_step(self, NULL);
            if (!r) return NULL;
            Py_DECREF(r);
        }
        if (stop->ok) {
            Py_INCREF(stop->value);
            return stop->value;
        }
        PyErr_SetObject((PyObject *)Py_TYPE(stop->value), stop->value);
        return NULL;
    }
    {
        double deadline = PyFloat_AsDouble(until);
        if (deadline == -1.0 && PyErr_Occurred()) return NULL;
        if (deadline < self->now) {
            PyObject *d = PyFloat_FromDouble(deadline);
            PyObject *n = PyFloat_FromDouble(self->now);
            if (d && n)
                PyErr_Format(SimulationError,
                             "run(until=%S) is in the past (now=%S)", d, n);
            Py_XDECREF(d); Py_XDECREF(n);
            return NULL;
        }
        if (self->policy != Py_None) {
            for (;;) {
                double next;
                PyObject *r;
                if (self->batch_head < PyList_GET_SIZE(self->batch)
                    || self->now_head < PyList_GET_SIZE(self->nowq))
                    next = self->now;
                else
                    next = cal_min_time((Calendar *)self->cal);
                if (!(next <= deadline)) break;
                r = PyObject_CallMethod((PyObject *)self,
                                        "_step_policy", NULL);
                if (!r) return NULL;
                Py_DECREF(r);
            }
        } else if (env_run_drain(self, deadline) < 0)
            return NULL;
        self->now = deadline;
        Py_RETURN_NONE;
    }
}

static PyMemberDef Env_members[] = {
    /* engine internals, exposed for the Python cold paths
     * (_compiled._step_policy etc.) */
    {"_now", T_DOUBLE, offsetof(CEnv, now), 0, NULL},
    {"_seq", T_LONGLONG, offsetof(CEnv, seq), 0, NULL},
    {"_event_count", T_LONGLONG, offsetof(CEnv, event_count), 0, NULL},
    {"_cal", T_OBJECT, offsetof(CEnv, cal), READONLY, NULL},
    {"_nowq", T_OBJECT, offsetof(CEnv, nowq), 0, NULL},
    {"_batch", T_OBJECT, offsetof(CEnv, batch), 0, NULL},
    {"_now_head", T_PYSSIZET, offsetof(CEnv, now_head), 0, NULL},
    {"_batch_head", T_PYSSIZET, offsetof(CEnv, batch_head), 0, NULL},
    {"_active_process", T_OBJECT, offsetof(CEnv, active_process), 0, NULL},
    {"_policy", T_OBJECT, offsetof(CEnv, policy), 0, NULL},
    {"_sched_log", T_OBJECT, offsetof(CEnv, sched_log), 0, NULL},
    {"_sched_fanout", T_OBJECT, offsetof(CEnv, sched_fanout), 0, NULL},
    {"flight", T_OBJECT, offsetof(CEnv, flight), 0, NULL},
    {"_procs", T_OBJECT, offsetof(CEnv, procs), 0, NULL},
    {"_next_pid", T_LONGLONG, offsetof(CEnv, next_pid), 0, NULL},
    {"_procs_prune_at", T_PYSSIZET, offsetof(CEnv, procs_prune_at), 0, NULL},
    {NULL}
};

static PyGetSetDef Env_getset[] = {
    {"now", (getter)Env_get_now, NULL,
     "Current simulated time in nanoseconds.", NULL},
    {"event_count", (getter)Env_get_event_count, NULL,
     "Total events processed so far (for engine benchmarks).", NULL},
    {"active_process", (getter)Env_get_active_process, NULL, NULL, NULL},
    {"schedule_decisions", (getter)Env_get_sched_log, NULL,
     "Chosen ready-list index per choice point (policy runs only).", NULL},
    {"schedule_fanouts", (getter)Env_get_sched_fanout, NULL,
     "Number of ready events per choice point (policy runs only).", NULL},
    {NULL}
};

static PyMethodDef Env_methods[] = {
    {"event", (PyCFunction)Env_event, METH_NOARGS, NULL},
    {"timeout", (PyCFunction)Env_timeout, METH_VARARGS | METH_KEYWORDS, NULL},
    {"process", (PyCFunction)Env_process, METH_VARARGS | METH_KEYWORDS, NULL},
    {"schedule", (PyCFunction)Env_schedule, METH_VARARGS | METH_KEYWORDS,
     "Schedule ``event`` to be processed ``delay`` ns from now."},
    {"_schedule", (PyCFunction)Env_schedule, METH_VARARGS | METH_KEYWORDS, NULL},
    {"step", (PyCFunction)Env_step, METH_NOARGS, "Process exactly one event."},
    {"peek", (PyCFunction)Env_peek, METH_NOARGS,
     "Time of the next event, or +inf if none is scheduled."},
    {"run", (PyCFunction)Env_run, METH_VARARGS | METH_KEYWORDS,
     "Run until the schedule drains, a deadline passes, or an event fires."},
    {"_has_work", (PyCFunction)Env_has_work, METH_NOARGS, NULL},
    {"_pull_batch", (PyCFunction)Env_pull_batch, METH_NOARGS, NULL},
    {NULL}
};

static PyTypeObject EnvironmentType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Environment",
    .tp_basicsize = sizeof(CEnv),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The event loop and virtual clock (compiled core).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Env_init,
    .tp_dealloc = (destructor)Env_dealloc,
    .tp_traverse = (traverseproc)Env_traverse,
    .tp_clear = (inquiry)Env_clear_slots,
    .tp_members = Env_members,
    .tp_getset = Env_getset,
    .tp_methods = Env_methods,
};

/* ==================== module ====================================== */

static struct PyModuleDef ccoremodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ccore",
    .m_doc = "Compiled calendar-queue event core (C twin of "
             "repro.sim._engine).",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__ccore(void) {
    PyObject *mod = NULL, *errors = NULL, *base = NULL;

    errors = PyImport_ImportModule("repro.common.errors");
    if (!errors) return NULL;
    SimulationError = PyObject_GetAttrString(errors, "SimulationError");
    ConfigError = PyObject_GetAttrString(errors, "ConfigError");
    Py_DECREF(errors);
    if (!SimulationError || !ConfigError) goto fail;

    base = PyImport_ImportModule("repro.sim._base");
    if (!base) goto fail;
    PENDING = PyObject_GetAttrString(base, "PENDING");
    InterruptExc = PyObject_GetAttrString(base, "Interrupt");
    Py_DECREF(base);
    base = NULL;
    if (!PENDING || !InterruptExc) goto fail;

    EchoType.tp_base = &EventType;
    TimeoutType.tp_base = &EventType;
    ProcessType.tp_base = &EventType;
    if (PyType_Ready(&EventType) < 0 ||
        PyType_Ready(&EchoType) < 0 ||
        PyType_Ready(&TimeoutType) < 0 ||
        PyType_Ready(&ProcessType) < 0 ||
        PyType_Ready(&CalendarType) < 0 ||
        PyType_Ready(&EnvironmentType) < 0)
        goto fail;

    mod = PyModule_Create(&ccoremodule);
    if (!mod) goto fail;

    if (PyModule_AddObjectRef(mod, "Event", (PyObject *)&EventType) < 0 ||
        PyModule_AddObjectRef(mod, "_Echo", (PyObject *)&EchoType) < 0 ||
        PyModule_AddObjectRef(mod, "Timeout", (PyObject *)&TimeoutType) < 0 ||
        PyModule_AddObjectRef(mod, "Process", (PyObject *)&ProcessType) < 0 ||
        PyModule_AddObjectRef(mod, "CalendarQueue",
                              (PyObject *)&CalendarType) < 0 ||
        PyModule_AddObjectRef(mod, "Environment",
                              (PyObject *)&EnvironmentType) < 0 ||
        PyModule_AddObjectRef(mod, "PENDING", PENDING) < 0 ||
        PyModule_AddObjectRef(mod, "Interrupt", InterruptExc) < 0)
        goto fail;
    return mod;

fail:
    Py_XDECREF(mod);
    Py_XDECREF(SimulationError); SimulationError = NULL;
    Py_XDECREF(ConfigError); ConfigError = NULL;
    Py_XDECREF(PENDING); PENDING = NULL;
    Py_XDECREF(InterruptExc); InterruptExc = NULL;
    return NULL;
}
