/*
 * Compiled cache path of repro.memsim.cachestate.CacheSystem.
 *
 * replay_batch() replays the cache-routed events of a range of full
 * trace columns over flat state the Python side owns
 * (repro.memsim.ckernel.FlatCacheState; the layout is described in
 * docs/architecture.md). Per event it applies the scalar oracle's
 * (CacheSystem.access) latency additions, counter increments,
 * CacheRecord writes and per-core latency sums, in the oracle's order.
 * Built with -ffp-contract=off and without -ffast-math, so the float
 * sums are the oracle's, bit for bit.
 *
 * Beside it: estimate_batch(), the reuse-gap model of
 * repro.memsim.estimate in one pass, srcbuf_walk(), OMEGA's per-core
 * source vertex buffers (repro.memsim.srcbuffer), dynpad_train(), the
 * dynamic backend's frequency-weighted pads
 * (repro.memsim.backends.dynamic), and lockstep_perm(), the trace
 * builder's lockstep interleave (repro.ligra.trace). No global
 * mutable state: calls on distinct states may run concurrently
 * (ctypes releases the GIL around each call).
 */
#include <stdint.h>
#include <string.h>

/* Counter slots: these scalars, then per-core blocks of ncores. */
enum {
    K_L2_HITS,      /* demand L2 hits */
    K_L2_MISSES,    /* demand L2 misses (= DRAM line reads) */
    K_PREFETCH,     /* stream-prefetched L1 misses */
    K_LINE_PKTS,    /* line-sized interconnect packets */
    K_INVALS,       /* coherence invalidation messages */
    K_DIR_WB,       /* directory-forced writebacks */
    K_DRAM_WRITES,  /* dirty L2 victims written to DRAM */
    K_ROW_HITS,
    K_ROW_MISSES,
    K_ATOMICS,      /* core-executed atomics */
    K_CACHE_EVENTS, /* cache-routed events replayed (the record row) */
    K_SCALARS
};
enum {
    P_L1_HITS, P_L1_MISSES, P_L1_EVICT, P_L1_DIRTY_EVICT,
    P_L2_HITS, P_L2_MISSES, P_L2_EVICT, P_L2_DIRTY_EVICT,
    P_EVENTS        /* every event of the range, whatever its route */
};
#define PER_CORE(s, block, c) \
    ((s)->counters[K_SCALARS + (block) * (s)->ncores + (c)])

typedef struct {
    int64_t ncores, l1_sets, l1_ways, l2_sets, l2_ways;
    int64_t line_bits, bank_mask, bank_bits;
    int64_t l1_lat, l2_lat, remote_lat, wb_lat, dram_lat;
    int64_t track_rows, channels, row_bytes, row_hit, row_miss;
    int64_t num_heads, nranges;
    int64_t cache_route, write_flag, atomic_flag;
    int64_t clock, dir_cap, dir_count;
    double atomic_ser, atomic_stall;
    int64_t *l1_tag, *l1_stamp, *l2_tag, *l2_stamp;  /* [sets][ways] */
    uint8_t *l1_dirty, *l2_dirty;
    int64_t *dir_key;      /* open addressing, -1 = empty slot */
    uint64_t *dir_mask;    /* sharer bit per core */
    int32_t *dir_owner;    /* modified holder, -1 = none */
    int64_t *heads, *next_head;
    int64_t *open_rows;
    const int64_t *ranges;    /* nranges (lo, hi) pairs */
    const int64_t *bank_lat;  /* [core * ncores + bank] */
    int64_t *counters;
} kstate;

static inline int64_t floor_mod(int64_t a, int64_t m)
{
    if ((m & (m - 1)) == 0)
        return a & (m - 1);
    int64_t r = a % m;
    return r < 0 ? r + m : r;
}

static inline uint64_t dir_home(int64_t key, int64_t cap)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    return (h ^ (h >> 32)) & (uint64_t)(cap - 1);
}

/* Slot holding `line`, or the empty slot where it would go (linear
   probing; the caller keeps the table at most half full). */
static inline uint64_t dir_slot(const kstate *s, int64_t line)
{
    uint64_t i = dir_home(line, s->dir_cap);
    while (s->dir_key[i] != line && s->dir_key[i] != -1)
        i = (i + 1) & (uint64_t)(s->dir_cap - 1);
    return i;
}

/* Backward-shift deletion: no tombstones, probe chains stay intact. */
static void dir_delete(kstate *s, uint64_t i)
{
    uint64_t m = (uint64_t)(s->dir_cap - 1), j = i;
    for (;;) {
        j = (j + 1) & m;
        if (s->dir_key[j] == -1)
            break;
        uint64_t k = dir_home(s->dir_key[j], s->dir_cap);
        if ((i <= j) ? (i < k && k <= j) : (i < k || k <= j))
            continue;  /* entry j's home lies in (i, j]: it stays */
        s->dir_key[i] = s->dir_key[j];
        s->dir_mask[i] = s->dir_mask[j];
        s->dir_owner[i] = s->dir_owner[j];
        i = j;
    }
    s->dir_key[i] = -1;
    s->dir_count--;
}

/* Probe one set: returns the hit way or -1, and sets *fill to the
   first empty way, else the least recently used one. */
static inline int64_t set_lookup(const int64_t *tag, const int64_t *stamp,
                                 int64_t ways, int64_t key, int64_t *fill)
{
    for (int64_t w = 0; w < ways; w++)
        if (tag[w] == key)
            return w;
    int64_t lru = -1;
    for (int64_t w = 0; w < ways; w++) {
        if (tag[w] == -1) {
            *fill = w;
            return -1;
        }
        if (lru < 0 || stamp[w] < stamp[lru])
            lru = w;
    }
    *fill = lru;
    return -1;
}

/* Open/hybrid row-buffer machine; returns 1 on a row hit. */
static inline int row_access(kstate *s, int64_t addr)
{
    int64_t ch = floor_mod(addr / 64, s->channels);
    int64_t row = addr / s->row_bytes;
    if (s->open_rows[ch] == row) {
        s->counters[K_ROW_HITS]++;
        return 1;
    }
    s->counters[K_ROW_MISSES]++;
    s->open_rows[ch] = row;
    return 0;
}

static inline int in_random_range(const kstate *s, int64_t addr)
{
    for (int64_t r = 0; r < s->nranges; r++)
        if (s->ranges[2 * r] <= addr && addr < s->ranges[2 * r + 1])
            return 1;
    return 0;
}

/* Posted DRAM write of a dirty L2 victim: row state only, no latency. */
static inline void dram_writeback(kstate *s, int64_t key, int64_t bank,
                                  int64_t *record)
{
    s->counters[K_DRAM_WRITES]++;
    if (record)
        (*record)++;
    int64_t addr = ((key << s->bank_bits) | bank) << s->line_bits;
    if (s->track_rows && !in_random_range(s, addr))
        row_access(s, addr);
}

/* L2 access of (bank, key); returns 1 on a hit, and a dirty victim's
   key through *victim (-1 if none). */
static inline int l2_access(kstate *s, int64_t bank, int64_t key,
                            int write, int64_t *victim)
{
    int64_t base = (bank * s->l2_sets + floor_mod(key, s->l2_sets))
                   * s->l2_ways;
    int64_t *tag = s->l2_tag + base, *stamp = s->l2_stamp + base;
    uint8_t *dirty = s->l2_dirty + base;
    int64_t fill, w = set_lookup(tag, stamp, s->l2_ways, key, &fill);
    *victim = -1;
    if (w >= 0) {
        PER_CORE(s, P_L2_HITS, bank)++;
        stamp[w] = s->clock++;
        dirty[w] |= (uint8_t)write;
        return 1;
    }
    PER_CORE(s, P_L2_MISSES, bank)++;
    if (tag[fill] != -1) {
        PER_CORE(s, P_L2_EVICT, bank)++;
        if (dirty[fill]) {
            PER_CORE(s, P_L2_DIRTY_EVICT, bank)++;
            *victim = tag[fill];
        }
    }
    tag[fill] = key;
    dirty[fill] = (uint8_t)write;
    stamp[fill] = s->clock++;
    return 0;
}

/* Directory.on_write / on_read for `core`: adds the invalidation round
   trip, then the modified owner's writeback transfer, to *latency. */
static inline void dir_access(kstate *s, int64_t line, int64_t core,
                              int write, double *latency)
{
    uint64_t i = dir_slot(s, line), me = 1ULL << core;
    if (s->dir_key[i] == -1) {
        s->dir_key[i] = line;
        s->dir_mask[i] = me;
        s->dir_owner[i] = write ? (int32_t)core : -1;
        s->dir_count++;
        return;
    }
    int32_t owner = s->dir_owner[i];
    int wb = owner >= 0 && owner != core;
    uint64_t others = write ? s->dir_mask[i] & ~me : 0;
    if (wb)
        s->counters[K_DIR_WB]++;
    if (write) {
        s->dir_mask[i] = me;
        s->dir_owner[i] = (int32_t)core;
    } else {
        s->dir_mask[i] |= me;
        if (wb)
            s->dir_owner[i] = -1;  /* M -> S */
    }
    if (others) {
        int64_t lset = floor_mod(line, s->l1_sets);
        for (uint64_t m = others; m; m &= m - 1) {
            int64_t base = (__builtin_ctzll(m) * s->l1_sets + lset)
                           * s->l1_ways;
            for (int64_t w = 0; w < s->l1_ways; w++) {
                if (s->l1_tag[base + w] == line) {
                    s->l1_tag[base + w] = -1;
                    break;
                }
            }
            s->counters[K_INVALS]++;
        }
        *latency += (double)s->remote_lat;
    }
    if (wb) {
        s->counters[K_LINE_PKTS]++;
        *latency += (double)s->wb_lat;
    }
}

/* Directory.on_eviction: `core` dropped a dirty `line` from its L1. */
static inline void dir_evict(kstate *s, int64_t line, int64_t core)
{
    uint64_t i = dir_slot(s, line);
    if (s->dir_key[i] == -1)
        return;
    s->dir_mask[i] &= ~(1ULL << core);
    if (s->dir_owner[i] == core)
        s->dir_owner[i] = -1;
    if (s->dir_mask[i] == 0)
        dir_delete(s, i);
}

/* StreamDetector.observe: the lowest head with head + 1 == line
   advances (a prefetch hit); else a round-robin head restarts. */
static inline int prefetch_observe(kstate *s, int64_t core, int64_t line)
{
    int64_t *heads = s->heads + core * s->num_heads;
    for (int64_t h = 0; h < s->num_heads; h++) {
        if (heads[h] + 1 == line) {
            heads[h] = line;
            return 1;
        }
    }
    int64_t h = s->next_head[core];
    heads[h] = line;
    s->next_head[core] = (h + 1) % s->num_heads;
    return 0;
}

/*
 * Replay events [start, end) of full trace columns: every event counts
 * once per core, and those routed to s->cache_route run through the
 * caches, the line id taken from the address and write/atomic from the
 * flags. Returns the first event not replayed: end, or earlier once the
 * directory is half full (the caller grows it and resumes). Record
 * columns are all NULL or all set, one row per cache-routed event.
 */
int64_t replay_batch(kstate *s, int64_t start, int64_t end,
                     const int16_t *cores, const int64_t *addrs,
                     const int8_t *flags, const int8_t *routes,
                     double *mem_lat, double *serial, uint8_t *r_l1,
                     uint8_t *r_l2h, uint8_t *r_l2m, uint8_t *r_pref,
                     int64_t *r_wb)
{
    int64_t *cnt = s->counters;
    int64_t i;
    for (i = start; i < end && 2 * (s->dir_count + 1) <= s->dir_cap; i++) {
        int64_t core = cores[i];
        PER_CORE(s, P_EVENTS, core)++;
        if (routes[i] != s->cache_route)
            continue;
        int64_t row = cnt[K_CACHE_EVENTS]++;
        int64_t line = addrs[i] >> s->line_bits;
        int64_t bank = line & s->bank_mask;  /* home L2 bank */
        int write = (flags[i] & s->write_flag) != 0;
        int64_t base = (core * s->l1_sets + floor_mod(line, s->l1_sets))
                       * s->l1_ways;
        int64_t *tag = s->l1_tag + base, *stamp = s->l1_stamp + base;
        uint8_t *dirty = s->l1_dirty + base;
        int64_t *wb_record = r_wb ? r_wb + row : 0;
        int64_t fill, victim = -1, victim2;
        double latency = (double)s->l1_lat;

        int64_t w = set_lookup(tag, stamp, s->l1_ways, line, &fill);
        if (w >= 0) {
            PER_CORE(s, P_L1_HITS, core)++;
            stamp[w] = s->clock++;
            if (write) {
                dirty[w] = 1;
                dir_access(s, line, core, 1, &latency);
            }
            goto fold;
        }

        PER_CORE(s, P_L1_MISSES, core)++;
        if (r_l1)
            r_l1[row] = 0;
        if (tag[fill] != -1) {
            PER_CORE(s, P_L1_EVICT, core)++;
            if (dirty[fill]) {
                PER_CORE(s, P_L1_DIRTY_EVICT, core)++;
                victim = tag[fill];
            }
        }
        tag[fill] = line;
        dirty[fill] = (uint8_t)write;
        stamp[fill] = s->clock++;
        dir_access(s, line, core, write, &latency);
        if (victim >= 0) {  /* the dirty L1 victim goes to its L2 bank */
            int64_t vbank = victim & s->bank_mask;
            if (vbank != core)
                cnt[K_LINE_PKTS]++;
            l2_access(s, vbank, victim >> s->bank_bits, 1, &victim2);
            if (victim2 >= 0)
                dram_writeback(s, victim2, vbank, wb_record);
            dir_evict(s, victim, core);
        }

        if (bank != core) {
            latency += (double)s->bank_lat[core * s->ncores + bank];
            cnt[K_LINE_PKTS]++;
        }
        latency += (double)s->l2_lat;
        if (l2_access(s, bank, line >> s->bank_bits, write, &victim2)) {
            cnt[K_L2_HITS]++;
            if (r_l2h)
                r_l2h[row] = 1;
        } else {
            cnt[K_L2_MISSES]++;
            if (r_l2m)
                r_l2m[row] = 1;
            if (s->track_rows && !in_random_range(s, addrs[i]))
                latency += (double)(row_access(s, addrs[i]) ? s->row_hit
                                                            : s->row_miss);
            else
                latency += (double)s->dram_lat;
            if (victim2 >= 0)
                dram_writeback(s, victim2, bank, wb_record);
        }
        if (prefetch_observe(s, core, line)) {
            cnt[K_PREFETCH]++;
            if (r_pref)
                r_pref[row] = 1;
            latency = (double)(s->l1_lat + 1);
        }
    fold:
        if (flags[i] & s->atomic_flag) {
            cnt[K_ATOMICS]++;
            serial[core] += latency * s->atomic_ser + s->atomic_stall;
            mem_lat[core] += latency * (1.0 - s->atomic_ser);
        } else {
            mem_lat[core] += latency;
        }
    }
    return i;
}

/* Move every live entry of the old directory table into the new one. */
void dir_rehash(kstate *s, const int64_t *old_key, const uint64_t *old_mask,
                const int32_t *old_owner, int64_t old_cap)
{
    for (int64_t j = 0; j < old_cap; j++) {
        if (old_key[j] == -1)
            continue;
        uint64_t i = dir_slot(s, old_key[j]);
        s->dir_key[i] = old_key[j];
        s->dir_mask[i] = old_mask[j];
        s->dir_owner[i] = old_owner[j];
    }
}

/* ---------------------------------------------------------------- */
/* Reuse-gap estimator (repro.memsim.estimate.predict_slot_hits)    */
/* ---------------------------------------------------------------- */

/* One access of a slot (a core's L1 set, or a bank's L2 set) to
   `line`. win[0..ways) holds the lines of the slot's last `ways`
   accesses as a ring (-1 = none yet; *pos is the oldest). The access
   hits iff `line` is among them -- predict_slot_hits' rule that the
   previous access to the line is at most `ways` slot accesses back. */
static inline int gap_access(int64_t *win, int64_t *pos, int64_t ways,
                             int64_t line)
{
    int hit = 0;
    for (int64_t w = 0; w < ways; w++)
        hit |= win[w] == line;
    win[*pos] = line;
    *pos = *pos + 1 == ways ? 0 : *pos + 1;
    return hit;
}

/*
 * Reuse-gap prediction over the events whose route is `cache_route`,
 * in trace order, the line of an event being addrs[i] >> line_bits: L1 slots per (core, L1 set); predicted L1 misses go
 * on to L2 slots per (bank, L2 set). win1/win2 hold each slot's ring
 * of `ways` lines (filled with -1) and pos1/pos2 its position
 * (zeroed); a level with ways <= 0 never hits and needs neither.
 * out[] = l1 hits, l2 hits, writes among the predicted L2 misses.
 */
void estimate_batch(int64_t n, const int8_t *routes, int64_t cache_route,
                    const int64_t *cores, const int64_t *addrs,
                    const uint8_t *writes, int64_t line_bits,
                    int64_t bank_bits,
                    int64_t l1_sets, int64_t l1_ways,
                    int64_t l2_sets, int64_t l2_ways,
                    int64_t *win1, int64_t *pos1,
                    int64_t *win2, int64_t *pos2, int64_t *out)
{
    int64_t bank_mask = ((int64_t)1 << bank_bits) - 1;
    int64_t l1_hits = 0, l2_hits = 0, miss_writes = 0;
    for (int64_t i = 0; i < n; i++) {
        if (routes[i] != cache_route)
            continue;
        int64_t line = addrs[i] >> line_bits;
        int64_t s1 = cores[i] * l1_sets + floor_mod(line, l1_sets);
        if (l1_ways > 0
            && gap_access(win1 + s1 * l1_ways, pos1 + s1, l1_ways, line)) {
            l1_hits++;
            continue;
        }
        int64_t bank = line & bank_mask;
        int64_t s2 = bank * l2_sets + floor_mod(line >> bank_bits, l2_sets);
        if (l2_ways > 0
            && gap_access(win2 + s2 * l2_ways, pos2 + s2, l2_ways, line))
            l2_hits++;
        else if (writes[i])
            miss_writes++;
    }
    out[0] = l1_hits;
    out[1] = l2_hits;
    out[2] = miss_writes;
}

/* ---------------------------------------------------------------- */
/* Source vertex buffers (repro.memsim.srcbuffer.SourceVertexBuffer) */
/* ---------------------------------------------------------------- */

/* Per-core LRU buffers: core c's live keys are keys[c * entries ..]
   up to fill[c], most recently used first. */
typedef struct {
    int64_t ncores, entries;
    int64_t *keys, *fill;
} sbstate;

/*
 * Look up n candidates (trace positions pos[], in order) in their
 * cores' buffers: a hit moves the entry to the front, a miss
 * read-allocates at the front and drops the last entry of a full
 * buffer. Every buffer is emptied before the first candidate at or
 * after each barrier position (sorted), and once more if barriers
 * remain after the last candidate. Writes the hit positions to
 * hits[] and returns their count.
 */
int64_t srcbuf_walk(sbstate *s, int64_t n, const int64_t *pos,
                    const int64_t *cores, const int64_t *keys,
                    int64_t nb, const int64_t *barriers, int64_t *hits)
{
    int64_t entries = s->entries, nh = 0, bi = 0;
    size_t fill_bytes = (size_t)s->ncores * sizeof(int64_t);
    for (int64_t j = 0; j < n; j++) {
        if (bi < nb && barriers[bi] <= pos[j]) {
            while (bi < nb && barriers[bi] <= pos[j])
                bi++;
            memset(s->fill, 0, fill_bytes);
        }
        int64_t core = cores[j], key = keys[j], f = s->fill[core], w;
        int64_t *kk = s->keys + core * entries;
        for (w = 0; w < f && kk[w] != key; w++)
            ;
        if (w < f)
            hits[nh++] = pos[j];
        else if (f < entries)
            s->fill[core] = f + 1;  /* w == f: the first free entry */
        else
            w = entries - 1;  /* evict the least recently used */
        memmove(kk + 1, kk, (size_t)w * sizeof(int64_t));
        kk[0] = key;
    }
    if (bi < nb)
        memset(s->fill, 0, fill_bytes);
    return nh;
}

/* ---------------------------------------------------------------- */
/* Dynamic pads (repro.memsim.backends.dynamic.DynamicPads)          */
/* ---------------------------------------------------------------- */

/* Frequency-weighted vertex sets: set k's live entries are
   vert/count[k * slots ..] up to fill[k], in insertion order; freq[v]
   is vertex v's running access count, for v < nfreq. */
typedef struct {
    int64_t num_sets, slots, nfreq;
    int64_t *vert, *count, *fill, *freq;
} dpstate;

/*
 * Train on events [start, n): each vtxProp event (vtxprop[i] set) of a
 * vertex v >= 0 bumps freq[v] and offers v to set v % num_sets. A
 * resident v takes the new count in place; else v is appended while
 * the set has room; else the first entry (in insertion order) with the
 * least count is the victim, and v replaces it, appended last, only if
 * the victim's count is below v's. resident[i] is set when v is in its
 * set after the event (the caller zeroes it). Returns the first event
 * not trained: n, or earlier at a vertex >= nfreq (the caller grows
 * freq and resumes).
 */
int64_t dynpad_train(dpstate *s, int64_t start, int64_t n,
                     const uint8_t *vtxprop, const int64_t *vertex,
                     uint8_t *resident)
{
    int64_t slots = s->slots, i;
    for (i = start; i < n; i++) {
        int64_t v = vertex[i];
        if (!vtxprop[i] || v < 0)
            continue;
        if (v >= s->nfreq)
            break;
        int64_t count = ++s->freq[v], set = v % s->num_sets;
        int64_t *vs = s->vert + set * slots, *cs = s->count + set * slots;
        int64_t f = s->fill[set], w;
        for (w = 0; w < f && vs[w] != v; w++)
            ;
        if (w == f && f == slots) {
            int64_t m = 0;
            for (w = 1; w < f; w++)
                if (cs[w] < cs[m])
                    m = w;
            if (cs[m] >= count)
                continue;
            size_t tail = (size_t)(f - 1 - m) * sizeof(int64_t);
            memmove(vs + m, vs + m + 1, tail);
            memmove(cs + m, cs + m + 1, tail);
            w = f - 1;
        } else if (w == f) {
            s->fill[set] = f + 1;
        }
        vs[w] = v;
        cs[w] = count;
        resident[i] = 1;
    }
    return i;
}

/* ---------------------------------------------------------------- */
/* Lockstep interleave (repro.ligra.trace.span_lockstep_perm)        */
/* ---------------------------------------------------------------- */

#define LOCKSTEP_CORES 64

/*
 * The lockstep order of a trace, span by span: within each span
 * [bounds[k], bounds[k+1]) (bounds strictly increasing), event r of
 * every core precedes event r+1 of any core, cores go in id order,
 * and each core keeps its own order. Events are counting-sorted by
 * core into scratch[] (n entries), then emitted rank by rank, a core
 * dropping out once it runs out of events. perm[] receives the trace
 * index of each output position. Returns -1, or the index of the
 * first event whose core id lies outside [0, LOCKSTEP_CORES).
 */
int64_t lockstep_perm(const int16_t *core, int64_t nbounds,
                      const int64_t *bounds, int64_t *perm,
                      int64_t *scratch)
{
    for (int64_t k = 0; k + 1 < nbounds; k++) {
        int64_t lo = bounds[k], hi = bounds[k + 1];
        int64_t count[LOCKSTEP_CORES] = {0}, start[LOCKSTEP_CORES];
        int64_t next[LOCKSTEP_CORES], live[LOCKSTEP_CORES];
        int64_t nlive = 0, at = lo;
        for (int64_t i = lo; i < hi; i++) {
            int64_t c = core[i];
            if (c < 0 || c >= LOCKSTEP_CORES)
                return i;
            count[c]++;
        }
        for (int64_t c = 0; c < LOCKSTEP_CORES; c++) {
            start[c] = next[c] = at;
            at += count[c];
            if (count[c])
                live[nlive++] = c;
        }
        for (int64_t i = lo; i < hi; i++)
            scratch[next[core[i]]++] = i;
        int64_t out = lo;
        for (int64_t r = 0; nlive; r++) {
            int64_t keep = 0;
            for (int64_t j = 0; j < nlive; j++) {
                int64_t c = live[j];
                perm[out++] = scratch[start[c] + r];
                if (r + 1 < count[c])
                    live[keep++] = c;
            }
            nlive = keep;
        }
    }
    return -1;
}
