/*
 * Native settle kernel of repro.fpga.simulate.simulate_design.
 *
 * One call replays a whole simulation run over a compiled netlist
 * (CompiledNetlist's flat arrays): the uncounted power-on settle, then
 * per control step the pad/control drives, the event-driven settle,
 * the clock edge and the settle after it. The delay model is the one
 * the Python kernels implement:
 *
 *   - at each tick the transitions due at that tick land in `state`,
 *     then every gate reading one of the changed nets re-evaluates;
 *   - a gate whose new evaluation differs from its previous one (the
 *     pending word, else the net's state) counts popcount(change)
 *     toggles and schedules its output transition `delay` ticks later.
 *
 * Lane state is a row-major (n_nets, n_words) uint64 array, lane i in
 * bit i % 64 of word i / 64. Gate outputs are masked to the real lanes.
 *
 * Build: cc -O2 -shared -fPIC -std=c99 -DREPRO_MAX_ARITY=N settle.c
 * (repro.fpga.native does this and caches the shared object).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifndef REPRO_MAX_ARITY
#error "define REPRO_MAX_ARITY (the widest truth table the kernel evaluates)"
#endif

/* Bumped whenever struct repro_sim or the entry points change. */
#define REPRO_SETTLE_ABI 1

/* Lane words evaluated together per gate (512 lanes). */
#define CHUNK 8

enum { COMB = 0, REG = 1, PAD = 2, CONTROL = 3 };

enum {
    OK = 0,
    ERR_NOMEM = -1,
    ERR_ARITY = -2,
    ERR_DELAY = -3,
    ERR_SLOTS = -4,
};

struct repro_sim {
    /* Netlist: gates in topological order, nets sources-first. */
    int32_t n_nets;
    int32_t n_gates;
    int32_t n_latches;
    int32_t n_words;
    const int32_t *gate_out;    /* [n_gates] output net id */
    const int32_t *fanin_ptr;   /* [n_gates + 1] CSR into fanin */
    const int32_t *fanin;       /* fanin net ids, port order */
    const int32_t *fanout_ptr;  /* [n_nets + 1] CSR into fanout */
    const int32_t *fanout;      /* gate positions reading each net */
    const int32_t *table_ptr;   /* [n_gates + 1] CSR into table */
    const uint32_t *table;      /* truth-table bits, LSB first */
    const int32_t *delay;       /* [n_gates] ticks, >= 1 */
    const int32_t *latch_q;     /* [n_latches] output net id */
    const int32_t *latch_d;     /* [n_latches] data net id */
    /* Stimulus. */
    int32_t n_steps;
    int32_t n_pads;
    int32_t n_controls;
    uint64_t tail_mask;         /* real lanes of the last word */
    const int32_t *pad_net;     /* [n_pads] */
    const uint64_t *pad_value;  /* [n_pads, n_words], driven at step 0 */
    const int32_t *control_net; /* [n_controls] */
    const uint8_t *control_bit; /* [n_steps, n_controls] */
    /* Results. */
    uint64_t *state;            /* [n_nets, n_words] */
    int64_t *net_toggles;       /* [n_nets] */
    int64_t *counters;          /* [4]: comb, reg, pad, control */
};

/* Scratch owned by one call. */
struct work {
    int32_t *changed;      /* [n_nets] nets changed at the current tick */
    int32_t n_changed;
    int32_t *triggered;    /* [n_gates] gates to evaluate this tick */
    uint8_t *marked;       /* [n_gates] gate already in `triggered` */
    uint8_t *pending;      /* [n_gates] pend_value holds a projection */
    int32_t *touched;      /* [n_gates] gates with pending set */
    uint64_t *pend_value;  /* [n_gates, n_words] last evaluation */
    uint64_t *value;       /* [n_words] evaluation result */
    uint64_t *fold;        /* [2^(max arity - 1), CHUNK] eval scratch */
    uint64_t *latched;     /* [n_latches, n_words] clock-edge data */
    /* Time wheel: an in-flight transition of gate g arriving at tick t
     * lives in slot slot_ptr[g] + t % delay[g]. A gate has at most
     * delay[g] transitions in flight (arrivals in (now, now + delay]),
     * so its slots never collide; bucket t % n_buckets chains the
     * slots arriving at tick t. */
    int32_t *slot_ptr;     /* [n_gates] */
    int32_t *slot_gate;    /* [n_slots] */
    int32_t *slot_next;    /* [n_slots] bucket chain, -1 ends */
    uint64_t *slot_value;  /* [n_slots, n_words] */
    int32_t *bucket;       /* [n_buckets] chain heads, -1 empty */
    int64_t n_buckets;
};

int repro_settle_abi(void) { return REPRO_SETTLE_ABI; }

static inline int64_t popcount64(uint64_t x)
{
    /* Portable SWAR popcount: the build targets the baseline ISA, where
     * __builtin_popcountll is a library call. */
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (int64_t)((x * 0x0101010101010101ull) >> 56);
}

/* Evaluate gate g over every lane word into `out`: a Shannon fold of
 * the truth table, CHUNK words at a time. Level 1 muxes adjacent table
 * bits on fanin 0; level j muxes adjacent level-(j-1) words on fanin j,
 * in place in ws->fold (2^(k-1) rows of CHUNK words). */
static void eval_gate(const struct repro_sim *s, struct work *ws, int32_t g,
                      uint64_t *out)
{
    const int32_t *fanin = s->fanin + s->fanin_ptr[g];
    const int k = s->fanin_ptr[g + 1] - s->fanin_ptr[g];
    const uint32_t *table = s->table + s->table_ptr[g];
    const int32_t nw = s->n_words;
    uint64_t *fold = ws->fold;
    for (int32_t base = 0; base < nw; base += CHUNK) {
        const int32_t m = nw - base < CHUNK ? nw - base : CHUNK;
        if (k == 0) {
            const uint64_t constant = -(uint64_t)(table[0] & 1u);
            for (int32_t w = 0; w < m; w++)
                out[base + w] = constant;
            continue;
        }
        const uint64_t *x = s->state + (size_t)fanin[0] * nw + base;
        uint32_t n = 1u << (k - 1);
        for (uint32_t i = 0; i < n; i++) {
            const uint32_t pair = table[i >> 4] >> ((2 * i) & 31);
            const uint64_t lo = -(uint64_t)(pair & 1u);
            const uint64_t hi = -(uint64_t)((pair >> 1) & 1u);
            uint64_t *row = fold + (size_t)i * CHUNK;
            for (int32_t w = 0; w < m; w++)
                row[w] = (x[w] & hi) | (~x[w] & lo);
        }
        for (int j = 1; j < k; j++) {
            x = s->state + (size_t)fanin[j] * nw + base;
            n >>= 1;
            for (uint32_t i = 0; i < n; i++) {
                uint64_t *row = fold + (size_t)i * CHUNK;
                const uint64_t *lo = fold + (size_t)(2 * i) * CHUNK;
                const uint64_t *hi = lo + CHUNK;
                for (int32_t w = 0; w < m; w++)
                    row[w] = (x[w] & hi[w]) | (~x[w] & lo[w]);
            }
        }
        for (int32_t w = 0; w < m; w++)
            out[base + w] = fold[w];
    }
    out[nw - 1] &= s->tail_mask;
}

/* Drive a source net to `value`, counting its toggles. */
static void drive(const struct repro_sim *s, struct work *ws, int32_t net,
                  const uint64_t *value, int category)
{
    const int32_t nw = s->n_words;
    uint64_t *current = s->state + (size_t)net * nw;
    int64_t toggles = 0;
    for (int32_t w = 0; w < nw; w++)
        toggles += popcount64(current[w] ^ value[w]);
    if (!toggles)
        return;
    s->counters[category] += toggles;
    s->net_toggles[net] += toggles;
    memcpy(current, value, (size_t)nw * sizeof(uint64_t));
    ws->changed[ws->n_changed++] = net;
}

/* Event-driven settle from the nets in ws->changed (already holding
 * their time-0 values). */
static void settle(const struct repro_sim *s, struct work *ws)
{
    const int32_t nw = s->n_words;
    const size_t row = (size_t)nw * sizeof(uint64_t);
    int64_t time = 0;
    int64_t in_flight = 0;
    int32_t n_touched = 0;
    while (ws->n_changed) {
        int32_t n_triggered = 0;
        for (int32_t c = 0; c < ws->n_changed; c++) {
            const int32_t net = ws->changed[c];
            for (int32_t p = s->fanout_ptr[net]; p < s->fanout_ptr[net + 1];
                 p++) {
                const int32_t g = s->fanout[p];
                if (!ws->marked[g]) {
                    ws->marked[g] = 1;
                    ws->triggered[n_triggered++] = g;
                }
            }
        }
        for (int32_t t = 0; t < n_triggered; t++) {
            const int32_t g = ws->triggered[t];
            const int32_t out = s->gate_out[g];
            uint64_t *projected = ws->pend_value + (size_t)g * nw;
            const uint64_t *previous =
                ws->pending[g] ? projected : s->state + (size_t)out * nw;
            ws->marked[g] = 0;
            eval_gate(s, ws, g, ws->value);
            int64_t toggles = 0;
            for (int32_t w = 0; w < nw; w++)
                toggles += popcount64(previous[w] ^ ws->value[w]);
            if (!toggles)
                continue;
            s->counters[COMB] += toggles;
            s->net_toggles[out] += toggles;
            const int64_t arrival = time + s->delay[g];
            const int32_t slot =
                ws->slot_ptr[g] + (int32_t)(arrival % s->delay[g]);
            const int64_t b = arrival % ws->n_buckets;
            memcpy(ws->slot_value + (size_t)slot * nw, ws->value, row);
            ws->slot_next[slot] = ws->bucket[b];
            ws->bucket[b] = slot;
            if (!ws->pending[g]) {
                ws->pending[g] = 1;
                ws->touched[n_touched++] = g;
            }
            memcpy(projected, ws->value, row);
            in_flight++;
        }
        ws->n_changed = 0;
        if (!in_flight)
            break;
        /* Every delay is >= 1 and shorter than the wheel, so the next
         * non-empty bucket is within one revolution. */
        do {
            time++;
        } while (ws->bucket[time % ws->n_buckets] < 0);
        const int64_t b = time % ws->n_buckets;
        for (int32_t slot = ws->bucket[b]; slot >= 0;
             slot = ws->slot_next[slot]) {
            const int32_t out = s->gate_out[ws->slot_gate[slot]];
            memcpy(s->state + (size_t)out * nw,
                   ws->slot_value + (size_t)slot * nw, row);
            ws->changed[ws->n_changed++] = out;
            in_flight--;
        }
        ws->bucket[b] = -1;
    }
    for (int32_t t = 0; t < n_touched; t++)
        ws->pending[ws->touched[t]] = 0;
}

static void release(struct work *ws)
{
    free(ws->changed);
    free(ws->triggered);
    free(ws->marked);
    free(ws->pending);
    free(ws->touched);
    free(ws->pend_value);
    free(ws->value);
    free(ws->fold);
    free(ws->latched);
    free(ws->slot_ptr);
    free(ws->slot_gate);
    free(ws->slot_next);
    free(ws->slot_value);
    free(ws->bucket);
}

static int prepare(const struct repro_sim *s, struct work *ws)
{
    const size_t nw = (size_t)s->n_words;
    const size_t gates = (size_t)s->n_gates;
    int64_t n_slots = 0;
    int32_t max_delay = 1;
    int max_arity = 1;
    for (int32_t g = 0; g < s->n_gates; g++) {
        const int arity = s->fanin_ptr[g + 1] - s->fanin_ptr[g];
        if (arity > REPRO_MAX_ARITY)
            return ERR_ARITY;
        if (arity > max_arity)
            max_arity = arity;
        if (s->delay[g] < 1)
            return ERR_DELAY;
        if (s->delay[g] > max_delay)
            max_delay = s->delay[g];
        n_slots += s->delay[g];
    }
    if (n_slots > INT32_MAX)
        return ERR_SLOTS;
    ws->n_buckets = (int64_t)max_delay + 1;
    /* calloc(0, ...) may return NULL; +1 keeps every request nonzero. */
    ws->changed = calloc((size_t)s->n_nets + 1, sizeof(int32_t));
    ws->triggered = calloc(gates + 1, sizeof(int32_t));
    ws->marked = calloc(gates + 1, 1);
    ws->pending = calloc(gates + 1, 1);
    ws->touched = calloc(gates + 1, sizeof(int32_t));
    ws->pend_value = calloc(gates * nw + 1, sizeof(uint64_t));
    ws->value = calloc(nw + 1, sizeof(uint64_t));
    ws->fold = calloc(((size_t)1 << (max_arity - 1)) * CHUNK, sizeof(uint64_t));
    ws->latched = calloc((size_t)s->n_latches * nw + 1, sizeof(uint64_t));
    ws->slot_ptr = calloc(gates + 1, sizeof(int32_t));
    ws->slot_gate = calloc((size_t)n_slots + 1, sizeof(int32_t));
    ws->slot_next = calloc((size_t)n_slots + 1, sizeof(int32_t));
    ws->slot_value = calloc((size_t)n_slots * nw + 1, sizeof(uint64_t));
    ws->bucket = calloc((size_t)ws->n_buckets, sizeof(int32_t));
    if (!ws->changed || !ws->triggered || !ws->marked || !ws->pending
        || !ws->touched || !ws->pend_value || !ws->value || !ws->fold
        || !ws->latched
        || !ws->slot_ptr || !ws->slot_gate || !ws->slot_next
        || !ws->slot_value || !ws->bucket)
        return ERR_NOMEM;
    int32_t next = 0;
    for (int32_t g = 0; g < s->n_gates; g++) {
        ws->slot_ptr[g] = next;
        for (int32_t d = 0; d < s->delay[g]; d++)
            ws->slot_gate[next++] = g;
    }
    for (int64_t b = 0; b < ws->n_buckets; b++)
        ws->bucket[b] = -1;
    return OK;
}

/* Run the whole simulation; 0 on success, a negative ERR_* otherwise. */
int repro_simulate(const struct repro_sim *s)
{
    struct work ws;
    memset(&ws, 0, sizeof ws);
    int status = prepare(s, &ws);
    if (status != OK) {
        release(&ws);
        return status;
    }
    const int32_t nw = s->n_words;
    const size_t row = (size_t)nw * sizeof(uint64_t);

    /* Power-on: settle the all-zero sources in topological order,
     * uncounted. */
    for (int32_t g = 0; g < s->n_gates; g++)
        eval_gate(s, &ws, g, s->state + (size_t)s->gate_out[g] * nw);

    for (int32_t step = 0; step < s->n_steps; step++) {
        if (step == 0)
            for (int32_t p = 0; p < s->n_pads; p++)
                drive(s, &ws, s->pad_net[p], s->pad_value + (size_t)p * nw,
                      PAD);
        for (int32_t c = 0; c < s->n_controls; c++) {
            const uint64_t word =
                s->control_bit[(size_t)step * s->n_controls + c] ? ~0ull : 0;
            for (int32_t w = 0; w < nw; w++)
                ws.value[w] = w == nw - 1 ? word & s->tail_mask : word;
            drive(s, &ws, s->control_net[c], ws.value, CONTROL);
        }
        settle(s, &ws);

        /* Clock edge: every flip-flop samples its data net first, then
         * all load together. */
        for (int32_t l = 0; l < s->n_latches; l++)
            memcpy(ws.latched + (size_t)l * nw,
                   s->state + (size_t)s->latch_d[l] * nw, row);
        for (int32_t l = 0; l < s->n_latches; l++)
            drive(s, &ws, s->latch_q[l], ws.latched + (size_t)l * nw, REG);
        settle(s, &ws);
    }
    release(&ws);
    return OK;
}
