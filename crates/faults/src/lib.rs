//! Deterministic fault-injection primitives.
//!
//! This crate is the dependency-free bottom of the robustness layer: it
//! defines *what can go wrong* during a repair ([`StormFault`],
//! [`FaultStorm`]) and *how the system reacts* ([`RetryPolicy`],
//! [`HealthTracker`]), plus two small utilities the recovery machinery
//! needs — a seeded [`SplitMix64`] PRNG so every injected fault is
//! reproducible, and the [`checksum64`] transport digest that verifies
//! intermediate blocks in flight.
//!
//! Faults are described independently of any repair plan (a fault kind
//! per supervision generation, sites left symbolic); `rpr-core`'s
//! supervision loop resolves them against the concrete [`RepairPlan`] each
//! generation runs and both backends (`rpr-netsim`, `rpr-exec`) enact
//! them. The full fault model and recovery semantics are documented in
//! `docs/ROBUSTNESS.md`.
//!
//! [`RepairPlan`]: https://docs.rs/rpr-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Stable failure-reason strings carried by `transfer_failed` trace
/// events. Kept as constants so backends and tests agree byte-for-byte.
pub mod reason {
    /// A transfer stalled past its deadline and was abandoned mid-flight.
    pub const TIMEOUT: &str = "timeout";
    /// An intermediate block arrived but failed checksum verification.
    pub const CORRUPT: &str = "corrupt";
    /// The rack aggregation switch dropped the transfer.
    pub const SWITCH_OUTAGE: &str = "switch_outage";
    /// The sending helper died; no retry will succeed.
    pub const NODE_DOWN: &str = "node_down";
    /// A helper returned checksum-consistent but wrong bytes, caught by
    /// proof verification (see `rpr-proof` and `docs/ROBUSTNESS.md`).
    pub const LIE: &str = "lie";
}

/// SplitMix64 — a tiny, high-quality, seedable PRNG (Steele et al.,
/// "Fast splittable pseudorandom number generators", OOPSLA '14).
///
/// Used everywhere the robustness layer needs reproducible randomness:
/// fault-site selection, failure fractions, and every property test in
/// the workspace. Identical seeds yield identical streams on every
/// platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`. Any value (including 0) is fine.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of a u64, scaled.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "SplitMix64::pick: empty range");
        // Modulo bias is negligible for the small n used here (op/node
        // counts), and determinism matters more than perfect uniformity.
        (self.next_u64() % n as u64) as usize
    }
}

/// The transport checksum: a 64-bit digest of a byte slice, read one
/// little-endian 64-bit word at a time into four independent lanes (a
/// byte-serial hash is one multiply per byte on a single dependency
/// chain, a fiftieth of memory speed), with the length mixed in so
/// trailing zero bytes count.
///
/// Every step is a bijection of the word it absorbs and of the state it
/// updates, so two inputs of one length that differ inside a single word
/// — any bit flip, any corrupted byte — never collide; wider damage is
/// caught with probability `1 − 2⁻⁶⁴`. The value depends on the bytes
/// alone (not on alignment or endianness) but is not a stable format:
/// it is computed and verified within one process. Not cryptographic —
/// a lying helper checksums its lie; that is what `rpr-proof` is for.
pub fn checksum64(data: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    // The rotation carries the top bits of the state back under the next
    // multiply; without it a flipped bit 63 stays in bit 63 and a second
    // one in the same lane cancels it.
    let absorb = |h: u64, w: u64| (h.rotate_left(29) ^ w).wrapping_mul(P1);
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));

    let mut lanes = [P2, P3, P4, P5];
    let mut stripes = data.chunks_exact(32);
    for s in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(s.chunks_exact(8)) {
            *lane = absorb(*lane, word(w));
        }
    }
    let mut h = (data.len() as u64).wrapping_mul(P5) ^ P4;
    for lane in lanes {
        h = absorb(h, lane);
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = absorb(h, word(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = absorb(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Bounded-retry policy for failed transfers and crash recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum transfer attempts (first try included). A transfer that
    /// fails this many times aborts the repair attempt.
    pub max_attempts: usize,
    /// Backoff before the first retry, in seconds (virtual seconds on the
    /// simulator backend, wall seconds on the executor).
    pub backoff: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff: 0.05,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Delay in seconds before the retry following failed attempt
    /// `attempt` (zero-based): `backoff * multiplier^attempt`.
    pub fn delay(&self, attempt: usize) -> f64 {
        self.backoff * self.multiplier.powi(attempt as i32)
    }
}

/// Where a storm crash strikes. Sites are plan-independent — the
/// supervisor resolves them against whatever plan the current replan
/// generation is running, so a storm authored once stays meaningful as
/// helpers are swapped out underneath it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// A specific node index. When that node is not a crash candidate of
    /// the generation (it sends nothing cross-rack, hosts no live block, or
    /// is the recovery node), a candidate is seed-picked in its place, as
    /// for [`CrashSite::SeedPick`]; the resolved site description names
    /// the node actually crashed.
    Node(usize),
    /// Seed-pick among the current generation's crash candidates.
    SeedPick,
    /// A helper participating in the current generation's plan that was
    /// *not* in the previous generation's — i.e. the replacement brought
    /// in by the last replan. Falls back to [`CrashSite::SeedPick`] when
    /// no such node exists.
    NewHelper,
}

/// One fault scheduled by the chaos process, described independently of
/// any concrete plan. The supervisor pins each to ops of the plan its
/// generation runs; a fault with no possible target there is skipped and
/// says so in the resolved site list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StormFault {
    /// A helper crash at the given site. Each crash ends the current
    /// supervision generation and forces a replan.
    Crash(CrashSite),
    /// One transient transfer timeout on a seed-picked send the
    /// generation executes (inner- or cross-rack).
    Timeout,
    /// One corrupted payload on a seed-picked send the generation
    /// executes, raw block or intermediate alike: it arrives in full and
    /// fails checksum verification once.
    Corrupt,
    /// A seed-picked helper's links run at `factor` of their rate for the
    /// rest of the repair.
    Slow {
        /// Rate multiplier in `(0, 1]`.
        factor: f64,
    },
    /// A seed-picked sending rack's switch blips: every cross-rack send
    /// the generation executes out of that rack fails once.
    RackOutage,
    /// A seed-picked helper turns Byzantine for the generation: its send
    /// carries wrong bytes under a *valid* transport checksum, so only proof
    /// verification (`rpr-proof`) can catch it. Invisible when the
    /// repair runs with proofs off.
    Lie,
}

impl StormFault {
    /// Stable lowercase name used in summaries and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            StormFault::Crash(CrashSite::Node(_)) => "crash",
            StormFault::Crash(CrashSite::SeedPick) => "crash",
            StormFault::Crash(CrashSite::NewHelper) => "replacement-crash",
            StormFault::Timeout => "timeout",
            StormFault::Corrupt => "corrupt",
            StormFault::Slow { .. } => "slow",
            StormFault::RackOutage => "rack",
            StormFault::Lie => "lie",
        }
    }
}

/// A fault storm: faults bucketed by supervision generation. Generation
/// `g`'s bucket is injected into the `g`-th repair attempt; a bucket
/// containing a [`StormFault::Crash`] ends that generation and the
/// supervisor replans into generation `g + 1`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultStorm {
    /// Seed driving every free parameter during resolution.
    pub seed: u64,
    /// Per-generation fault buckets, in injection order.
    pub generations: Vec<Vec<StormFault>>,
}

impl FaultStorm {
    /// An empty storm with the given seed.
    pub fn new(seed: u64) -> FaultStorm {
        FaultStorm {
            seed,
            generations: Vec::new(),
        }
    }

    /// Builder-style: append one generation bucket.
    pub fn with_generation(mut self, faults: Vec<StormFault>) -> FaultStorm {
        self.generations.push(faults);
        self
    }

    /// Total number of scheduled faults across all generations.
    pub fn fault_count(&self) -> usize {
        self.generations.iter().map(|g| g.len()).sum()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.fault_count() == 0
    }
}

/// A seeded continuous fault process: Poisson-style arrivals over a
/// virtual horizon, occasional multi-fault *storms*, and a
/// repeated-offender bias that makes the same node misbehave again.
///
/// `storm()` is a pure function of the struct's fields — the same
/// configuration always produces the same [`FaultStorm`], which is what
/// lets `rpr chaos` replay bit-deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosProcess {
    /// Seed for the arrival/parameter stream.
    pub seed: u64,
    /// Mean number of fault arrivals over the horizon.
    pub rate: f64,
    /// Probability that an arrival bursts into a 2–3-fault storm.
    pub storm_probability: f64,
    /// Probability that a crash re-targets the previous offender's
    /// replacement ([`CrashSite::NewHelper`]) instead of a fresh pick.
    pub repeat_bias: f64,
    /// Hard cap on scheduled crashes (bounds the supervision loop; a
    /// storm can only demand as many replans as the code tolerates).
    pub max_crashes: usize,
}

impl Default for ChaosProcess {
    fn default() -> ChaosProcess {
        ChaosProcess {
            seed: 0,
            rate: 3.0,
            storm_probability: 0.25,
            repeat_bias: 0.5,
            max_crashes: 2,
        }
    }
}

impl ChaosProcess {
    /// A default-shaped process with the given seed.
    pub fn new(seed: u64) -> ChaosProcess {
        ChaosProcess {
            seed,
            ..ChaosProcess::default()
        }
    }

    /// Sample the fault storm this process produces.
    ///
    /// Arrivals are exponential (inter-arrival `-ln(1 - u) / rate` over a
    /// unit horizon); each arrival draws a fault kind, storms burst into
    /// 2–3 faults, and every crash closes the current generation bucket.
    pub fn storm(&self) -> FaultStorm {
        let mut rng = SplitMix64::new(self.seed);
        let mut storm = FaultStorm::new(self.seed);
        let mut bucket: Vec<StormFault> = Vec::new();
        let mut crashes = 0usize;
        let mut t = 0.0f64;
        if self.rate > 0.0 {
            loop {
                let u = rng.next_f64();
                t += -(1.0 - u).ln() / self.rate;
                if t >= 1.0 {
                    break;
                }
                let burst = if rng.next_f64() < self.storm_probability {
                    2 + rng.pick(2)
                } else {
                    1
                };
                for _ in 0..burst {
                    let fault = self.draw_fault(&mut rng, crashes);
                    let is_crash = matches!(fault, StormFault::Crash(_));
                    bucket.push(fault);
                    if is_crash {
                        crashes += 1;
                        storm.generations.push(std::mem::take(&mut bucket));
                    }
                }
            }
        }
        if !bucket.is_empty() {
            storm.generations.push(bucket);
        }
        storm
    }

    fn draw_fault(&self, rng: &mut SplitMix64, crashes_so_far: usize) -> StormFault {
        // Transient faults are more common than crashes; crashes beyond
        // the budget degrade into transients so the storm stays bounded.
        let roll = rng.next_f64();
        if roll < 0.35 && crashes_so_far < self.max_crashes {
            let site = if crashes_so_far > 0 && rng.next_f64() < self.repeat_bias {
                CrashSite::NewHelper
            } else {
                CrashSite::SeedPick
            };
            StormFault::Crash(site)
        } else if roll < 0.6 {
            StormFault::Timeout
        } else if roll < 0.75 {
            StormFault::Corrupt
        } else if roll < 0.9 {
            StormFault::Slow {
                factor: 0.2 + 0.6 * rng.next_f64(),
            }
        } else {
            StormFault::RackOutage
        }
    }
}

/// The blast radius of one churn arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// A single node (disk/host) fails: one live stripe loses one more
    /// block.
    Node,
    /// A rack-level event (ToR switch, power domain): a correlated batch
    /// of stripes sharing the rack each lose a block at the same instant.
    Rack {
        /// Number of live stripes the event hits.
        victims: usize,
    },
    /// A correlated multi-stripe batch (firmware rollout, bad disk
    /// batch) not tied to one rack.
    Batch {
        /// Number of live stripes the event hits.
        victims: usize,
    },
}

impl ChurnKind {
    /// Number of live stripes this arrival hits.
    pub fn victims(&self) -> usize {
        match self {
            ChurnKind::Node => 1,
            ChurnKind::Rack { victims } | ChurnKind::Batch { victims } => *victims,
        }
    }

    /// Stable lowercase name used in summaries and traces.
    pub fn name(&self) -> &'static str {
        match self {
            ChurnKind::Node => "node",
            ChurnKind::Rack { .. } => "rack",
            ChurnKind::Batch { .. } => "batch",
        }
    }
}

/// One failure arrival sampled from a [`ChurnProcess`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// Virtual arrival time in seconds; strictly increasing across the
    /// stream (zero-probability ties aside).
    pub t: f64,
    /// What failed.
    pub kind: ChurnKind,
    /// Seeded draw fixing every remaining free parameter. The process is
    /// deliberately stripe-agnostic — the consumer (the fleet drain)
    /// derives victim stripes and failed blocks from this value, e.g. by
    /// seeding a [`SplitMix64`] with it.
    pub draw: u64,
}

/// A seeded continuous failure/replacement arrival stream on the fleet's
/// virtual clock.
///
/// Where [`ChaosProcess`] samples a bounded storm for *one* repair,
/// `ChurnProcess` models the cell-level regime the drain races against:
/// Poisson arrivals at `rate` failures per virtual second, forever — the
/// stream is unbounded and the consumer stops pulling when its own
/// horizon (the drain's backlog) is exhausted. Arrivals are node events,
/// rack-correlated batches, or cross-rack correlated batches.
///
/// The stream is a pure function of the seed: two same-seed processes
/// produce bit-identical event sequences, which is what lets a resumed
/// (`--resume`) drain re-derive exactly the churn an interrupted run saw.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnProcess {
    /// Mean failure arrivals per virtual second.
    pub rate: f64,
    /// Probability that an arrival is a rack-level correlated event.
    pub rack_probability: f64,
    /// Probability that an arrival is a cross-rack correlated batch.
    pub batch_probability: f64,
    /// Largest victim count a rack/batch event can draw (≥ 2).
    pub max_batch: usize,
    seed: u64,
    rng: SplitMix64,
    t: f64,
}

impl ChurnProcess {
    /// A default-shaped process: 10% rack events, 15% correlated
    /// batches, batches of 2–4 stripes.
    pub fn new(seed: u64, rate: f64) -> ChurnProcess {
        ChurnProcess {
            rate,
            rack_probability: 0.10,
            batch_probability: 0.15,
            max_batch: 4,
            seed,
            rng: SplitMix64::new(seed),
            t: 0.0,
        }
    }

    /// The seed this process was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Virtual time of the most recently sampled arrival (0 before the
    /// first call).
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Sample the next arrival. Returns `None` when the process is
    /// disabled (`rate <= 0` or not finite); otherwise times are
    /// strictly increasing (exponential inter-arrivals at `rate`).
    pub fn next_event(&mut self) -> Option<ChurnEvent> {
        if self.rate <= 0.0 || !self.rate.is_finite() {
            return None;
        }
        let u = self.rng.next_f64();
        self.t += -(1.0 - u).ln() / self.rate;
        let roll = self.rng.next_f64();
        let span = self.max_batch.max(2) - 1; // victims in 2..=max_batch
        let kind = if roll < self.rack_probability {
            ChurnKind::Rack {
                victims: 2 + self.rng.pick(span),
            }
        } else if roll < self.rack_probability + self.batch_probability {
            ChurnKind::Batch {
                victims: 2 + self.rng.pick(span),
            }
        } else {
            ChurnKind::Node
        };
        Some(ChurnEvent {
            t: self.t,
            kind,
            draw: self.rng.next_u64(),
        })
    }
}

/// Per-node health scores fed by transfer outcomes, with quarantine and
/// probing re-admission.
///
/// Scores are EWMAs in `[0, 1]` (1 = healthy). A node whose score sinks
/// below the quarantine threshold is avoided by helper re-selection
/// until it has sat out `probe_after` supervision generations; it is
/// then re-admitted *on probation* — its score is reset to exactly the
/// threshold, so a single further failure re-quarantines it while
/// successes rebuild trust.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    alpha: f64,
    threshold: f64,
    probe_after: usize,
    generation: usize,
    scores: Vec<f64>,
    // generation at which the node was quarantined, if currently out.
    quarantined_at: Vec<Option<usize>>,
}

impl HealthTracker {
    /// A tracker with EWMA weight `alpha`, quarantine `threshold`, and
    /// probing re-admission after `probe_after` generations.
    pub fn new(alpha: f64, threshold: f64, probe_after: usize) -> HealthTracker {
        HealthTracker {
            alpha: alpha.clamp(0.0, 1.0),
            threshold: threshold.clamp(0.0, 1.0),
            probe_after: probe_after.max(1),
            generation: 0,
            scores: Vec::new(),
            quarantined_at: Vec::new(),
        }
    }

    /// Conservative defaults: fast EWMA (α = 0.5), quarantine below 0.4,
    /// probe after 2 generations.
    pub fn with_defaults() -> HealthTracker {
        HealthTracker::new(0.5, 0.4, 2)
    }

    fn ensure(&mut self, node: usize) {
        if node >= self.scores.len() {
            self.scores.resize(node + 1, 1.0);
            self.quarantined_at.resize(node + 1, None);
        }
    }

    /// Feed one observation for `node`: `score` in `[0, 1]` (1 = the
    /// transfer completed at or above the expected rate, 0 = it failed).
    /// May quarantine the node.
    pub fn observe(&mut self, node: usize, score: f64) {
        self.ensure(node);
        let s = score.clamp(0.0, 1.0);
        self.scores[node] = self.alpha * s + (1.0 - self.alpha) * self.scores[node];
        if self.scores[node] < self.threshold && self.quarantined_at[node].is_none() {
            self.quarantined_at[node] = Some(self.generation);
        }
    }

    /// Record a successful transfer whose duration was `actual` against
    /// an expected `baseline` (same units). On-time or faster scores 1;
    /// slower decays toward 0.
    pub fn record_success(&mut self, node: usize, actual: f64, baseline: f64) {
        let score = if actual <= 0.0 || baseline <= 0.0 {
            1.0
        } else {
            (baseline / actual).clamp(0.0, 1.0)
        };
        self.observe(node, score);
    }

    /// Record a failed transfer from `node` (scores 0).
    pub fn record_failure(&mut self, node: usize) {
        self.observe(node, 0.0);
    }

    /// Quarantine `node` immediately on *evidence* (a rejected repair
    /// proof), regardless of its EWMA score. The score is zeroed so the
    /// node must rebuild trust from scratch after its probe window; the
    /// probing re-admission path ([`HealthTracker::tick_generation`])
    /// is the same one timeout-quarantined nodes take.
    pub fn accuse(&mut self, node: usize) {
        self.ensure(node);
        self.scores[node] = 0.0;
        if self.quarantined_at[node].is_none() {
            self.quarantined_at[node] = Some(self.generation);
        }
    }

    /// Advance the supervision generation counter. Quarantined nodes
    /// that have sat out `probe_after` generations are re-admitted on
    /// probation (score reset to the threshold).
    pub fn tick_generation(&mut self) {
        self.generation += 1;
        for node in 0..self.scores.len() {
            if let Some(at) = self.quarantined_at[node] {
                if self.generation - at >= self.probe_after {
                    self.quarantined_at[node] = None;
                    self.scores[node] = self.threshold;
                }
            }
        }
    }

    /// Current EWMA score of `node` (1.0 for never-observed nodes).
    pub fn score(&self, node: usize) -> f64 {
        self.scores.get(node).copied().unwrap_or(1.0)
    }

    /// True while `node` is quarantined (helper re-selection avoids it).
    pub fn is_quarantined(&self, node: usize) -> bool {
        self.quarantined_at.get(node).copied().flatten().is_some()
    }

    /// Sorted list of currently quarantined nodes.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.quarantined_at.len())
            .filter(|&n| self.is_quarantined(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_matches_reference() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn pick_stays_in_range() {
        let mut rng = SplitMix64::new(9);
        for n in 1..=17 {
            for _ in 0..50 {
                assert!(rng.pick(n) < n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn pick_rejects_empty_range() {
        SplitMix64::new(0).pick(0);
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        // Lengths on both sides of every boundary in the digest: empty,
        // sub-word, one word, one byte short of a stripe, one stripe, one
        // byte over, and many stripes with a word tail and a byte tail.
        for len in [0usize, 1, 7, 8, 31, 32, 33, 4099] {
            let mut data = noise(len, len as u64);
            let base = checksum64(&data);
            for bit in 0..len * 8 {
                data[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&data), base, "len {len}: flip of bit {bit}");
                data[bit / 8] ^= 1 << (bit % 8);
            }
            assert_eq!(checksum64(&data), base, "len {len}");
        }
        // A chunk-sized input: every bit of the first and last 16 bytes,
        // and one bit at every 16411th offset between (all of them would
        // be eight million megabyte digests).
        let len = (1 << 20) + 5;
        let mut data = noise(len, 5);
        let base = checksum64(&data);
        let edges = (0..16 * 8).chain((len - 16) * 8..len * 8);
        let strided = (16..len - 16).step_by(16411).map(|at| at * 8 + at % 8);
        for bit in edges.chain(strided) {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&data), base, "len {len}: flip of bit {bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn checksum_counts_trailing_zero_bytes() {
        for len in [0usize, 3, 8, 29, 32, 64, 100] {
            let mut data = noise(len, 77);
            let mut seen = vec![checksum64(&data)];
            for _ in 0..40 {
                data.push(0);
                let sum = checksum64(&data);
                assert!(!seen.contains(&sum), "len {len} + zeros to {}", data.len());
                seen.push(sum);
            }
        }
    }

    #[test]
    fn checksum_ignores_where_the_slice_sits_in_memory() {
        let data = noise(4099 + 8, 13);
        for len in [0usize, 5, 32, 33, 4099] {
            let base = checksum64(&data[..len]);
            for shift in 0..8 {
                let mut moved = vec![0xEEu8; shift];
                moved.extend_from_slice(&data[..len]);
                assert_eq!(checksum64(&moved[shift..]), base, "len {len} at +{shift}");
            }
        }
    }

    #[test]
    fn retry_policy_backoff_grows_geometrically() {
        let p = RetryPolicy {
            max_attempts: 4,
            backoff: 0.1,
            multiplier: 2.0,
        };
        assert!((p.delay(0) - 0.1).abs() < 1e-12);
        assert!((p.delay(1) - 0.2).abs() < 1e-12);
        assert!((p.delay(3) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn chaos_process_is_deterministic_and_bounded() {
        let p = ChaosProcess::new(17);
        let a = p.storm();
        let b = p.storm();
        assert_eq!(a, b, "same process must sample the same storm");
        let crashes = a
            .generations
            .iter()
            .flatten()
            .filter(|f| matches!(f, StormFault::Crash(_)))
            .count();
        assert!(crashes <= p.max_crashes);
        // Every generation except possibly the last ends with a crash.
        for (i, g) in a.generations.iter().enumerate() {
            if i + 1 < a.generations.len() {
                assert!(matches!(g.last(), Some(StormFault::Crash(_))));
            }
        }
        // Different seeds explore different storms (with rate 3 the
        // chance of 64 identical storms is negligible).
        let distinct = (0..64)
            .map(|s| ChaosProcess::new(s).storm())
            .collect::<Vec<_>>();
        assert!(distinct.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn churn_process_is_deterministic_and_strictly_increasing() {
        let mut a = ChurnProcess::new(99, 2.5);
        let mut b = ChurnProcess::new(99, 2.5);
        let mut last = 0.0f64;
        let mut kinds = [false; 3];
        for _ in 0..500 {
            let ea = a.next_event().expect("rate > 0 streams forever");
            let eb = b.next_event().expect("rate > 0 streams forever");
            assert_eq!(ea, eb, "same seed must sample the same stream");
            assert!(ea.t > last, "arrival times must strictly increase");
            last = ea.t;
            match ea.kind {
                ChurnKind::Node => kinds[0] = true,
                ChurnKind::Rack { victims } | ChurnKind::Batch { victims } => {
                    assert!((2..=a.max_batch).contains(&victims));
                    kinds[if matches!(ea.kind, ChurnKind::Rack { .. }) {
                        1
                    } else {
                        2
                    }] = true;
                }
            }
            assert!(ea.kind.victims() >= 1);
        }
        assert!(kinds.iter().all(|&k| k), "all three kinds should appear");
        assert!((a.now() - last).abs() < 1e-12);
        assert_eq!(a.seed(), 99);
    }

    #[test]
    fn churn_process_disabled_when_rate_nonpositive() {
        assert_eq!(ChurnProcess::new(1, 0.0).next_event(), None);
        assert_eq!(ChurnProcess::new(1, -3.0).next_event(), None);
        assert_eq!(ChurnProcess::new(1, f64::NAN).next_event(), None);
    }

    #[test]
    fn churn_kind_names_and_victims() {
        assert_eq!(ChurnKind::Node.name(), "node");
        assert_eq!(ChurnKind::Node.victims(), 1);
        assert_eq!(ChurnKind::Rack { victims: 3 }.name(), "rack");
        assert_eq!(ChurnKind::Rack { victims: 3 }.victims(), 3);
        assert_eq!(ChurnKind::Batch { victims: 2 }.name(), "batch");
        assert_eq!(ChurnKind::Batch { victims: 2 }.victims(), 2);
    }

    #[test]
    fn fault_storm_builder_counts_faults() {
        let storm = FaultStorm::new(3)
            .with_generation(vec![
                StormFault::Timeout,
                StormFault::Crash(CrashSite::SeedPick),
            ])
            .with_generation(vec![StormFault::Crash(CrashSite::NewHelper)]);
        assert_eq!(storm.fault_count(), 3);
        assert!(!storm.is_empty());
        assert!(FaultStorm::new(0).is_empty());
        assert_eq!(
            StormFault::Crash(CrashSite::NewHelper).name(),
            "replacement-crash"
        );
        assert_eq!(StormFault::Timeout.name(), "timeout");
        assert_eq!(StormFault::Lie.name(), "lie");
    }

    #[test]
    fn accusation_quarantines_immediately_and_probes_like_any_other() {
        let mut h = HealthTracker::new(0.5, 0.4, 2);
        // A single accusation quarantines a perfectly healthy node.
        h.record_success(4, 1.0, 1.0);
        assert!(!h.is_quarantined(4));
        h.accuse(4);
        assert!(h.is_quarantined(4));
        assert!((h.score(4) - 0.0).abs() < 1e-12, "trust is zeroed");
        // Re-admission rides the standard probe window...
        h.tick_generation();
        assert!(h.is_quarantined(4));
        h.tick_generation();
        assert!(!h.is_quarantined(4));
        assert!((h.score(4) - 0.4).abs() < 1e-12, "probation score");
        // ...and a repeat offense re-quarantines on the spot.
        h.accuse(4);
        assert!(h.is_quarantined(4));
    }

    #[test]
    fn health_tracker_quarantines_and_probes() {
        let mut h = HealthTracker::new(0.5, 0.4, 2);
        assert!(!h.is_quarantined(3));
        assert!((h.score(3) - 1.0).abs() < 1e-12);
        // Two straight failures: 1.0 -> 0.5 -> 0.25 < 0.4 => quarantined.
        h.record_failure(3);
        assert!(!h.is_quarantined(3));
        h.record_failure(3);
        assert!(h.is_quarantined(3));
        assert_eq!(h.quarantined(), vec![3]);
        // One generation is not enough to probe...
        h.tick_generation();
        assert!(h.is_quarantined(3));
        // ...two are: re-admitted on probation at exactly the threshold.
        h.tick_generation();
        assert!(!h.is_quarantined(3));
        assert!((h.score(3) - 0.4).abs() < 1e-12);
        // On probation, a single failure re-quarantines immediately.
        h.record_failure(3);
        assert!(h.is_quarantined(3));
    }

    #[test]
    fn health_tracker_scores_latency_ratio() {
        let mut h = HealthTracker::with_defaults();
        // On-time transfers keep the node at full health.
        h.record_success(1, 1.0, 1.0);
        assert!((h.score(1) - 1.0).abs() < 1e-12);
        // A 4x straggler pulls the EWMA down but one sample does not
        // quarantine.
        h.record_success(1, 4.0, 1.0);
        assert!(h.score(1) < 1.0 && !h.is_quarantined(1));
    }
}
