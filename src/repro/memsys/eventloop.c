/*
 * Event loop of the Fig. 25 memory-system simulator (see system.py).
 *
 * One global event heap (core-ready, PuD-arrival, bank-free,
 * stall-release), FIFO bank queues with the FR-FCFS+Cap pick, core
 * injection from packed trace tapes, PuD op service and PRAC's per-row
 * counters.  Each visit runs the phases of the reference Python event
 * loop in its order, and every double is computed with Python's order
 * of operations, so results are bit-identical to it.  Build with
 * -O2 -ffp-contract=off and without -ffast-math (kernel.py does).
 *
 * Tapes grow lazily: when a core must read past the end of its tape,
 * memsys_run returns the core's id with all state kept in `struct sim`;
 * the caller grows the tape, stores its new address and length, and
 * calls memsys_run again, which resumes the same visit.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_UNITS 64 /* banks and cores: visit sets are uint64 masks */

#define MEMSYS_DONE (-1)
#define MEMSYS_ROW_RANGE (-2)
#define MEMSYS_NO_MEMORY (-3)

/* packed tape entry, low to high: is_write (1), row (16), bank (8), gap */
#define ROW_SHIFT 1
#define BANK_SHIFT 17
#define GAP_SHIFT 25
#define ROW_MASK 0xFFFF
#define BANK_MASK 0xFF

enum { EV_CORE, EV_PUD, EV_BANK, EV_STALL };

/* at most this many PuD op pairs wait in the target bank's queue */
#define PUD_BACKLOG 4
/* the rows of the CoMRA half of every PuD op pair */
static const int32_t COMRA_ROWS[2] = {40, 42};
/* an unmaterialized PRAC counter (Python: a row missing from the dict) */
#define UNSET INT64_MIN

struct event {
    double time;
    int32_t kind;
    int32_t payload;
};

struct request {
    int32_t core; /* -1 for a PuD op pair */
    int32_t row;  /* -1 for a PuD op pair */
    int32_t is_write;
    int32_t is_pud;
};

struct bank {
    struct request *queue; /* FIFO: queue[head .. tail) */
    int64_t head, tail, cap;
    int64_t hit_streak;
    double busy_until;
    int32_t open_row; /* -1: precharged */
    int32_t inflight; /* core id of the CPU read in service, or -1 */
    int64_t *counters; /* PRAC counter per row, UNSET until touched */
    int32_t *touched;  /* rows whose counter is set, in touch order */
    int64_t n_touched;
};

struct core {
    int64_t pos;
    int64_t outstanding;
    double next_ready;
    double retired;
    int32_t blocked;
};

struct state {
    struct event *heap;
    int64_t n_events, heap_cap;
    struct bank banks[MAX_UNITS];
    struct core cores[MAX_UNITS];
    double now, stall_until, pud_next;
    int64_t pud_queue;
    uint64_t inject_mask, ready_mask, revived_mask;
    int32_t done[MAX_UNITS];
    int32_t n_done;
    int32_t *simra_rows; /* 0 .. pud_rows - 1, the SiMRA half's rows */
    int32_t in_visit; /* a visit's phase 1 awaits a tape's growth */
};

/* Shared with kernel.py's ctypes `Sim`: keep the two in step. */
struct sim {
    /* inputs */
    double horizon_ns, peak_ipc, t_hit_ns, t_miss_ns, t_conflict_ns;
    double t_backoff_ns, t_pud_ns, pud_period_ns;
    double simra_latency_ns, comra_latency_ns;
    int64_t mlp, frfcfs_cap, rdt, act_weight, simra_weight, comra_weight;
    int32_t n_banks, n_cores, counter_rows, has_pud, pud_bank, pud_rows;
    int32_t has_prac, _pad;
    const int64_t *tape[MAX_UNITS];
    int64_t tape_len[MAX_UNITS];
    /* outputs */
    double retired[MAX_UNITS];
    int64_t requests, served, pud_ops, backoffs, bad_row;
    /* private */
    struct state *state;
};

/* ------------------------------------------------------------------ */
/* event heap, ordered by the whole (time, kind, payload) tuple        */

static int before(const struct event *a, const struct event *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    if (a->kind != b->kind)
        return a->kind < b->kind;
    return a->payload < b->payload;
}

static int push(struct state *s, double time, int32_t kind, int32_t payload)
{
    if (s->n_events == s->heap_cap) {
        int64_t cap = s->heap_cap ? 2 * s->heap_cap : 64;
        struct event *grown = realloc(s->heap, cap * sizeof *grown);
        if (!grown)
            return 0;
        s->heap = grown;
        s->heap_cap = cap;
    }
    struct event ev = {time, kind, payload};
    int64_t i = s->n_events++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!before(&ev, &s->heap[parent]))
            break;
        s->heap[i] = s->heap[parent];
        i = parent;
    }
    s->heap[i] = ev;
    return 1;
}

static struct event pop(struct state *s)
{
    struct event top = s->heap[0];
    struct event last = s->heap[--s->n_events];
    int64_t n = s->n_events, i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(&s->heap[child + 1], &s->heap[child]))
            child++;
        if (!before(&s->heap[child], &last))
            break;
        s->heap[i] = s->heap[child];
        i = child;
    }
    if (n)
        s->heap[i] = last;
    return top;
}

/* ------------------------------------------------------------------ */
/* bank queues                                                          */

static int enqueue(struct bank *b, struct request r)
{
    if (b->tail == b->cap) {
        if (b->head > 0) {
            memmove(b->queue, b->queue + b->head,
                    (b->tail - b->head) * sizeof *b->queue);
            b->tail -= b->head;
            b->head = 0;
        } else {
            int64_t cap = b->cap ? 2 * b->cap : 16;
            struct request *grown = realloc(b->queue, cap * sizeof *grown);
            if (!grown)
                return 0;
            b->queue = grown;
            b->cap = cap;
        }
    }
    b->queue[b->tail++] = r;
    return 1;
}

/* FR-FCFS+Cap: the oldest open-row hit under the streak cap, else the
 * oldest request (a PuD op's row is -1, never an open row) */
static struct request pick(struct bank *b, int64_t frfcfs_cap)
{
    if (b->hit_streak < frfcfs_cap && b->open_row >= 0) {
        for (int64_t i = b->head; i < b->tail; i++) {
            if (b->queue[i].row == b->open_row) {
                struct request r = b->queue[i];
                memmove(b->queue + i, b->queue + i + 1,
                        (b->tail - i - 1) * sizeof *b->queue);
                b->tail--;
                return r;
            }
        }
    }
    return b->queue[b->head++];
}

/* ------------------------------------------------------------------ */
/* PRAC counters (Python: mitigations.prac.PracCounters, warm start)   */

static int64_t warm_start(int64_t rdt, int64_t bank, int64_t row)
{
    uint64_t phase = (((uint64_t)row * 0x9E3779B1u
                       + (uint64_t)bank * 0x85EBCA77u) >> 7) & 0xFFFF;
    return (int64_t)((double)phase / 65536.0 * 0.9 * (double)rdt);
}

/* Add `weight` to each row's counter; then, if the hottest counter
 * reached the RDT, raise the back-off: stall the channel and serve the
 * RFM, which zeroes every counter at or above the RDT.  Returns 0, or
 * MEMSYS_ROW_RANGE / MEMSYS_NO_MEMORY. */
static int record(struct sim *sim, struct state *s, int32_t bank_index,
                  const int32_t *rows, int32_t n_rows, int64_t weight,
                  double issue_floor)
{
    struct bank *b = &s->banks[bank_index];
    int64_t hottest = -1;
    for (int32_t i = 0; i < n_rows; i++) {
        int32_t row = rows[i];
        if (row < 0 || row >= sim->counter_rows) {
            sim->bad_row = row;
            return MEMSYS_ROW_RANGE;
        }
        int64_t value = b->counters[row];
        if (value == UNSET) {
            value = warm_start(sim->rdt, bank_index, row);
            b->touched[b->n_touched++] = row;
        }
        value += weight;
        b->counters[row] = value;
        if (value > hottest)
            hottest = value;
    }
    if (hottest < sim->rdt)
        return 0;
    double release = issue_floor + sim->t_backoff_ns;
    if (release > s->stall_until) {
        s->stall_until = release;
        if (!push(s, release, EV_STALL, 0))
            return MEMSYS_NO_MEMORY;
    }
    for (int64_t i = 0; i < b->n_touched; i++) {
        int32_t row = b->touched[i];
        if (b->counters[row] >= sim->rdt)
            b->counters[row] = 0;
    }
    sim->backoffs++;
    return 0;
}

/* ------------------------------------------------------------------ */

void memsys_free(struct sim *sim)
{
    struct state *s = sim->state;
    if (!s)
        return;
    for (int32_t i = 0; i < MAX_UNITS; i++) {
        free(s->banks[i].queue);
        free(s->banks[i].counters);
        free(s->banks[i].touched);
    }
    free(s->simra_rows);
    free(s->heap);
    free(s);
    sim->state = NULL;
}

int memsys_init(struct sim *sim)
{
    struct state *s = calloc(1, sizeof *s);
    sim->state = s;
    if (!s)
        return MEMSYS_NO_MEMORY;
    sim->requests = sim->served = sim->pud_ops = sim->backoffs = 0;
    s->pud_next = sim->has_pud ? 0.0 : INFINITY;
    for (int32_t i = 0; i < sim->n_banks; i++) {
        struct bank *b = &s->banks[i];
        b->open_row = -1;
        b->inflight = -1;
        if (sim->has_prac) {
            b->counters = malloc(sim->counter_rows * sizeof *b->counters);
            b->touched = malloc(sim->counter_rows * sizeof *b->touched);
            if (!b->counters || !b->touched)
                return MEMSYS_NO_MEMORY;
            for (int32_t row = 0; row < sim->counter_rows; row++)
                b->counters[row] = UNSET;
        }
    }
    if (sim->has_prac && sim->has_pud) {
        /* + 1: malloc(0) may return NULL */
        s->simra_rows = malloc((sim->pud_rows + 1) * sizeof *s->simra_rows);
        if (!s->simra_rows)
            return MEMSYS_NO_MEMORY;
        for (int32_t row = 0; row < sim->pud_rows; row++)
            s->simra_rows[row] = row;
    }
    for (int32_t i = 0; i < sim->n_cores; i++)
        if (!push(s, 0.0, EV_CORE, i))
            return MEMSYS_NO_MEMORY;
    if (sim->has_pud && !push(s, 0.0, EV_PUD, 0))
        return MEMSYS_NO_MEMORY;
    return 0;
}

/* Run until the horizon (MEMSYS_DONE), a tape runs out (the core's id)
 * or an error (a negative MEMSYS_* code). */
int memsys_run(struct sim *sim)
{
    struct state *s = sim->state;
    const double horizon = sim->horizon_ns, peak_ipc = sim->peak_ipc;
    const int64_t mlp = sim->mlp;
    const int32_t n_banks = sim->n_banks;
    int status;

    for (;;) {
        if (!s->in_visit) {
            if (!(s->n_events && s->heap[0].time < horizon))
                break;
            double now = s->heap[0].time;
            uint64_t inject = 0;
            int visit = 0;
            while (s->n_events && s->heap[0].time == now) {
                struct event ev = pop(s);
                if (ev.kind == EV_CORE) {
                    inject |= 1ull << ev.payload;
                } else if (ev.kind == EV_BANK) {
                    /* the bank's one in-flight service finishes now */
                    struct bank *b = &s->banks[ev.payload];
                    if (b->inflight >= 0) {
                        s->done[s->n_done++] = b->inflight;
                        b->inflight = -1;
                    }
                    if (b->tail > b->head)
                        s->ready_mask |= 1ull << ev.payload;
                } else if (ev.kind == EV_STALL && now != s->stall_until) {
                    continue; /* superseded by a later back-off */
                }
                visit = 1;
            }
            if (!visit)
                continue;
            s->now = now;
            s->inject_mask = inject | s->revived_mask;
            s->revived_mask = 0;
            s->in_visit = 1;
        }
        const double now = s->now;

        /* 1) cores inject requests that are ready at `now` */
        while (s->inject_mask) {
            int32_t id = __builtin_ctzll(s->inject_mask);
            struct core *c = &s->cores[id];
            while (c->outstanding < mlp && c->next_ready <= now) {
                if (c->pos >= sim->tape_len[id])
                    return id; /* resumes here once the tape grew */
                uint64_t word = (uint64_t)sim->tape[id][c->pos++];
                int64_t gap = (int64_t)(word >> GAP_SHIFT);
                c->next_ready = (c->next_ready > now ? c->next_ready : now)
                                + (double)gap / peak_ipc;
                c->retired += (double)gap;
                int32_t is_write = (int32_t)(word & 1);
                if (!is_write)
                    c->outstanding++;
                sim->requests++;
                int32_t bank_id =
                    (int32_t)(((word >> BANK_SHIFT) & BANK_MASK) % n_banks);
                struct bank *b = &s->banks[bank_id];
                struct request r = {
                    id, (int32_t)((word >> ROW_SHIFT) & ROW_MASK), is_write, 0};
                if (!enqueue(b, r))
                    return MEMSYS_NO_MEMORY;
                if (b->busy_until <= now)
                    s->ready_mask |= 1ull << bank_id;
            }
            if (c->outstanding >= mlp)
                c->blocked = 1;
            else if (!push(s, c->next_ready, EV_CORE, id))
                return MEMSYS_NO_MEMORY;
            s->inject_mask &= s->inject_mask - 1;
        }
        s->in_visit = 0;

        /* 2) PuD op arrivals: one op pair per period, at most
         * PUD_BACKLOG waiting in the bank queue */
        if (s->pud_next <= now) {
            while (s->pud_next <= now) {
                if (s->pud_queue < PUD_BACKLOG) {
                    s->pud_queue++;
                    struct bank *b = &s->banks[sim->pud_bank];
                    struct request r = {-1, -1, 1, 1};
                    if (!enqueue(b, r))
                        return MEMSYS_NO_MEMORY;
                    if (b->busy_until <= now)
                        s->ready_mask |= 1ull << sim->pud_bank;
                }
                s->pud_next += sim->pud_period_ns;
            }
            if (!push(s, s->pud_next, EV_PUD, 0))
                return MEMSYS_NO_MEMORY;
        }

        /* 3) schedule free banks, one pick each, under one snapshotted
         * issue floor */
        if (s->ready_mask) {
            const double floor_ = now >= s->stall_until ? now : s->stall_until;
            while (s->ready_mask) {
                int32_t index = __builtin_ctzll(s->ready_mask);
                s->ready_mask &= s->ready_mask - 1;
                struct bank *b = &s->banks[index];
                if (b->tail == b->head)
                    continue;
                struct request r = pick(b, sim->frfcfs_cap);
                if (r.is_pud) {
                    /* one SiMRA + one CoMRA; SiMRA leaves the bank
                     * precharged */
                    double extra = 0.0;
                    if (sim->has_prac) {
                        status = record(sim, s, index, s->simra_rows,
                                        sim->pud_rows, sim->simra_weight,
                                        floor_);
                        if (status)
                            return status;
                        status = record(sim, s, index, COMRA_ROWS, 2,
                                        sim->comra_weight, floor_);
                        if (status)
                            return status;
                        extra = sim->simra_latency_ns;
                        extra += sim->comra_latency_ns;
                    }
                    b->open_row = -1;
                    b->hit_streak = 0;
                    sim->pud_ops++;
                    b->busy_until = floor_ + (sim->t_pud_ns + extra);
                    s->pud_queue--;
                } else {
                    double duration;
                    if (b->open_row == r.row) {
                        b->hit_streak++;
                        duration = sim->t_hit_ns;
                    } else {
                        b->hit_streak = 0;
                        if (sim->has_prac) {
                            status = record(sim, s, index, &r.row, 1,
                                            sim->act_weight, floor_);
                            if (status)
                                return status;
                        }
                        duration = b->open_row < 0 ? sim->t_miss_ns
                                                   : sim->t_conflict_ns;
                        b->open_row = r.row;
                    }
                    b->busy_until = floor_ + duration;
                    if (!r.is_write)
                        b->inflight = r.core;
                    sim->served++;
                }
                if (!push(s, b->busy_until, EV_BANK, index))
                    return MEMSYS_NO_MEMORY;
            }
        }

        /* 4) deliver the reads whose bank freed at `now` */
        for (int32_t i = 0; i < s->n_done; i++) {
            int32_t id = s->done[i];
            struct core *c = &s->cores[id];
            c->outstanding--;
            if (c->blocked) {
                c->blocked = 0;
                if (c->next_ready > now) {
                    if (!push(s, c->next_ready, EV_CORE, id))
                        return MEMSYS_NO_MEMORY;
                } else {
                    s->revived_mask |= 1ull << id;
                }
            }
        }
        s->n_done = 0;
    }

    for (int32_t i = 0; i < sim->n_cores; i++)
        sim->retired[i] = s->cores[i].retired;
    return MEMSYS_DONE;
}
