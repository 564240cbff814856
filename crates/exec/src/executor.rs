//! Thread-per-operation plan execution with real bytes: one attempt at a
//! plan, including the faults a supervision generation enacts on it —
//! per-attempt transfer failures with checksum verification and bounded
//! retry, and helper-crash propagation through the operation DAG.
//! Replanning around what an attempt lost is the supervision loop's
//! ([`crate::execute_supervised`], `docs/ROBUSTNESS.md`), and so is every
//! entry point: [`crate::execute`] and [`crate::execute_recorded`] are its
//! fault-free generation. An attempt records the events of its own ops —
//! transfers, combines, stream summaries, a crash — and the loop the
//! timestep brackets and `repair_done` around them, as on the simulator.
//!
//! An attempt runs the plan's [`JobGraph`] — the value the simulator runs
//! — with one thread per lowered op. The graph fixes the chunk split, the
//! dependency edges and which of them only order, each fold's modeled
//! seconds, and the one combine per node that derives the decoding
//! matrix. There is one way to run an op: as a stream of the graph's
//! chunks. Store-and-forward is the stream with one chunk — the whole
//! block — which is what a context without
//! [`RepairContext::with_chunk_size`] gets; every fault and every event
//! is enacted once, for any chunk count.
//!
//! Payload bytes live in pooled chunks ([`crate::arena`]) from the moment
//! a helper first sends them: a send of a stripe block copies it into the
//! pool chunk by chunk, a combine folds into the chunk it forwards, and
//! from there a chunk moves — down an edge, through a relaying send, into
//! the op's value, into the supervisor's partial-result pool, back out as
//! a later generation's prefill — by `Arc` bump. A hop costs one write of
//! each byte and the two transport-checksum passes (sender, receiver).

use crate::arena::{ArenaStats, BufferPool, Chunk, PoolBuf, Tally};
use crate::ratelimit::TokenBucket;
use rpr_codec::BlockId;
use rpr_core::{
    combine_kernel, network_for, op_label, send_transfer, stream_summary, Input, JobGraph, Network,
    Op, OpId, Payload, RepairContext, ResolvedFaults,
};
use rpr_faults::{checksum64, reason, RetryPolicy};
use rpr_obs::{Event, Recorder};
use rpr_topology::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Rate-limiter granularity when the context does not configure a
/// streaming chunk size. With [`RepairContext::with_chunk_size`] the
/// limiters instead admit exactly one streaming chunk per take, so shaper
/// granularity and cut-through chunk size always agree.
const DEFAULT_SHAPER_CHUNK: usize = 64 * 1024;

/// Wall-clock timing of one executed operation, in seconds since the run
/// started.
#[derive(Clone, Copy, Debug)]
pub struct OpTiming {
    /// When the op had all inputs and began executing.
    pub start: f64,
    /// When the op finished.
    pub end: f64,
}

/// The result of executing one repair plan on real data.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Total wall-clock repair time in seconds.
    pub wall_seconds: f64,
    /// Per-op timings, indexed like the ops of the plan that finished the
    /// repair (the replacement plan after a crash recovery). Skipped and
    /// reused ops read as zero.
    pub op_timings: Vec<OpTiming>,
    /// Bytes moved across racks (full payloads; aborted attempts and
    /// retransmissions are not counted).
    pub cross_bytes: u64,
    /// Bytes moved within racks.
    pub inner_bytes: u64,
    /// True if every reconstructed block matched the lost original.
    pub verified: bool,
    /// Targets whose reconstruction mismatched (empty when `verified`).
    pub mismatches: Vec<BlockId>,
    /// Payload-buffer counters: how many of this execution's chunk
    /// buffers were allocated fresh vs served from the process-wide
    /// pool. The first repair of a geometry in a process allocates; the
    /// next ones recycle. The blocks in `recovered` are not pooled and
    /// not counted.
    pub arena: ArenaStats,
    /// The reconstructed output blocks, in plan-output order — the exact
    /// bytes a degraded-read client receives, each assembled once from
    /// the output op's chunks.
    pub recovered: Vec<(BlockId, Arc<Vec<u8>>)>,
    /// Wall-clock seconds at which the **first decoded chunk** of any
    /// output op was available at its executing node — the
    /// degraded-read time-to-first-byte when the recovery node is the
    /// client ([`RepairContext::with_recovery_node`]). Under cut-through
    /// streaming this is far earlier than [`ExecReport::wall_seconds`];
    /// in block mode it coincides with the output op's completion
    /// (there is no cut-through without streaming). `None` only if no
    /// output op executed in the reporting attempt (all outputs reused
    /// from a previous generation's partial pool).
    pub first_byte_seconds: Option<f64>,
}

/// Why a supervised execution could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The storm's crashes made the stripe unrecoverable (more than `k`
    /// total failures), or no fallback plan validates.
    Unrecoverable(String),
    /// A transfer's injected failures exhaust the retry budget.
    RetriesExhausted(String),
    /// The stripe does not match the repair: a block count other than
    /// `n + k`, blocks of unequal length, or blocks of another size than
    /// the context's.
    MalformedStripe(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Unrecoverable(m) => write!(f, "unrecoverable: {m}"),
            ExecError::RetriesExhausted(m) => write!(f, "retries exhausted: {m}"),
            ExecError::MalformedStripe(m) => write!(f, "malformed stripe: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

struct NodeLinks {
    up: TokenBucket,
    down: TokenBucket,
    xup: TokenBucket,
    xdown: TokenBucket,
    cpu: Mutex<()>,
}

/// Lock a mutex shared by the op threads of one attempt.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("an op thread panicked holding this lock")
}

/// The value of an op: its output block, as the chunks it was produced
/// and forwarded in. A one-chunk stream, a streamed block and a value
/// re-served from an earlier generation are all this.
pub(crate) type Value = Vec<Chunk>;

/// The contiguous bytes of a value — assembled for plan outputs only.
pub(crate) fn assemble(value: &[Chunk]) -> Arc<Vec<u8>> {
    let mut block = Vec::with_capacity(value.iter().map(|c| c.len()).sum());
    for chunk in value {
        block.extend_from_slice(chunk);
    }
    Arc::new(block)
}

/// What flows through a dependency channel: the next chunk of the
/// producer's output, or notice that the rest will never arrive (dead
/// helper upstream).
#[derive(Debug)]
enum Delivery {
    Data(Chunk),
    Failed,
}

/// Everything that parameterizes one execution attempt beyond the plan
/// itself.
pub(crate) struct AttemptCfg<'a> {
    /// Faults to enact (attempt failures, crash, link derates).
    pub(crate) faults: &'a ResolvedFaults,
    /// Retry backoff schedule.
    pub(crate) policy: RetryPolicy,
    /// Per-op values already available from a previous attempt.
    pub(crate) prefilled: &'a [Option<&'a [Chunk]>],
    /// The lowered plan: which ops execute (the rest are skipped or
    /// reused), over which chunks and edges, at which modeled pace.
    pub(crate) graph: &'a JobGraph<'a>,
    /// Label tag (`p{tag}op{i}`): the supervision generation index.
    pub(crate) tag: usize,
    /// Cooperative cancellation: past this instant, in-flight transfers
    /// abandon the stream between shaper admissions and propagate `Failed`
    /// downstream, unwinding the whole attempt. The supervisor's hedge
    /// deadline cancels a straggling generation for real this way.
    pub(crate) deadline: Option<Instant>,
    /// Where the attempt's buffer checkouts are counted.
    pub(crate) tally: &'a Tally,
}

/// Immutable per-run state shared by every op thread.
struct RunEnv<'r, 'c> {
    graph: &'r JobGraph<'r>,
    ctx: &'r RepairContext<'c>,
    stripe: &'r [Vec<u8>],
    rec: &'r dyn Recorder,
    t0: Instant,
    /// The simulator's view of the cluster: every shaper rate comes from it.
    net: &'r Network,
    links: &'r [NodeLinks],
    agg: Option<&'r TokenBucket>,
    waves: &'r [Option<usize>],
    /// Rate-limiter granularity in bytes (the streaming chunk size, or
    /// [`DEFAULT_SHAPER_CHUNK`] when streaming is off).
    chunk: usize,
    /// Where this attempt's payload-buffer checkouts are counted.
    tally: &'r Tally,
    /// `outputs[i]` — op `i` produces a plan output (a reconstructed
    /// block delivered to the recovery node / degraded-read client).
    outputs: &'r [bool],
    /// Earliest wall time any output op delivered its first chunk: the
    /// degraded-read first byte, min-merged across output ops.
    first_out: &'r Mutex<Option<f64>>,
}

impl RunEnv<'_, '_> {
    /// A pooled buffer of `len` bytes, contents unspecified.
    fn checkout(&self, len: usize) -> PoolBuf {
        BufferPool::process().get(len, self.tally)
    }

    /// `src` in a pooled buffer of its own — the one copy a hop makes of
    /// bytes that are not in the pool yet. A Byzantine sender's copy has
    /// its first byte flipped: the one place a lie is told.
    fn pooled_copy(&self, src: &[u8], lie: bool) -> Chunk {
        let mut c = self.checkout(src.len());
        c.copy_from_slice(src);
        if lie {
            c[0] ^= 0xA5;
        }
        Arc::new(c)
    }

    /// Note that output op `i` just made its first chunk available at
    /// time `t` (no-op for non-output ops; keeps the earliest time).
    fn note_first_out(&self, i: usize, t: f64) {
        if !self.outputs[i] {
            return;
        }
        let mut g = lock(self.first_out);
        if g.is_none_or(|cur| t < cur) {
            *g = Some(t);
        }
    }
}

/// Deliver `chunk` to every consumer in `to` — an `Arc` bump each,
/// whatever the chunk's size. A consumer may have aborted (failed input on
/// another edge) and dropped its receiver mid-stream; sends into a closed
/// channel are simply dropped.
fn forward(to: &[Sender<Delivery>], chunk: &Chunk) {
    for tx in to {
        let _ = tx.send(Delivery::Data(chunk.clone()));
    }
}

/// What one attempt produced.
pub(crate) struct AttemptRun {
    /// Output value of every op that completed.
    pub(crate) values: Vec<Option<Value>>,
    /// Wall-clock timings (zero for ops that did not run).
    pub(crate) op_timings: Vec<OpTiming>,
    /// Failed-and-retried transfer attempts.
    pub(crate) retries: usize,
    /// Earliest wall time any output op delivered its first chunk (the
    /// degraded-read first byte); `None` if no output op ran.
    pub(crate) first_out: Option<f64>,
}

/// Check that `stripe` holds `blocks` blocks of `block_bytes` each.
///
/// # Errors
/// [`ExecError::MalformedStripe`], naming the first mismatch.
pub(crate) fn check_stripe(
    blocks: usize,
    block_bytes: u64,
    stripe: &[Vec<u8>],
) -> Result<(), ExecError> {
    let bad = |m: String| Err(ExecError::MalformedStripe(m));
    if stripe.len() != blocks {
        return bad(format!("{} blocks, want n + k = {blocks}", stripe.len()));
    }
    if let Some(b) = stripe.iter().position(|b| b.len() as u64 != block_bytes) {
        return bad(format!(
            "block {b} holds {} bytes, want {block_bytes}",
            stripe[b].len()
        ));
    }
    Ok(())
}

/// Per-node link shapers at the simulator's own rates (rpr-netsim's
/// resource layout), with optional per-node derates from injected
/// slow-link faults.
fn node_links(net: &Network, slow: &[(NodeId, f64)]) -> Vec<NodeLinks> {
    (0..net.topology().node_count())
        .map(|i| {
            let node = NodeId(i);
            let factor: f64 = slow
                .iter()
                .filter(|(n, _)| *n == node)
                .map(|&(_, f)| f)
                .product();
            let nic = net.nic_rate(node) * factor;
            let cross = net.cross_class_rate(node) * factor;
            NodeLinks {
                up: TokenBucket::new(nic),
                down: TokenBucket::new(nic),
                xup: TokenBucket::new(cross),
                xdown: TokenBucket::new(cross),
                cpu: Mutex::default(),
            }
        })
        .collect()
}

/// Run every lowered op of the graph once, enacting the configured
/// faults. Transfers with injected attempt failures retry in place; a
/// helper crash poisons the dead node's remaining ops and propagates
/// `Failed` through the DAG, while independent branches run to completion.
pub(crate) fn run_attempt(
    ctx: &RepairContext<'_>,
    stripe: &[Vec<u8>],
    rec: &dyn Recorder,
    t0: Instant,
    cfg: &AttemptCfg<'_>,
) -> AttemptRun {
    let (graph, plan) = (cfg.graph, cfg.graph.plan);
    let net = network_for(ctx);
    let links = node_links(&net, &cfg.faults.slow);

    // Wire one channel per edge of the graph, data and ordering alike;
    // dependencies on reused ops read the prefilled value. An edge
    // carries one delivery per chunk and is unbounded — the shapers pace
    // the producers, and cut-through must never let a slow fan-out
    // branch stall the stream.
    let mut producers: Vec<Vec<Sender<Delivery>>> =
        (0..plan.ops.len()).map(|_| Vec::new()).collect();
    type Edge = (usize, Receiver<Delivery>);
    let mut consumers: Vec<Vec<Edge>> = (0..plan.ops.len()).map(|_| Vec::new()).collect();
    for (i, op) in graph.ops.iter().enumerate() {
        for dep in op.data.iter().chain(&op.ordering) {
            let (tx, rx) = channel();
            producers[dep.0].push(tx);
            consumers[i].push((dep.0, rx));
        }
    }

    // Optional shared aggregation-switch shaper for all cross traffic.
    let agg: Option<TokenBucket> = ctx.agg_capacity.map(TokenBucket::new);

    let (waves, _) = plan.cross_waves(ctx.topo);
    let retries = AtomicUsize::new(0);

    let mut outputs = vec![false; plan.ops.len()];
    for &(_, op) in &plan.outputs {
        outputs[op.0] = true;
    }
    let first_out: Mutex<Option<f64>> = Mutex::new(None);

    let env = RunEnv {
        graph,
        ctx,
        stripe,
        rec,
        t0,
        net: &net,
        links: &links,
        agg: agg.as_ref(),
        waves: &waves,
        chunk: ctx
            .effective_chunk()
            .map_or(DEFAULT_SHAPER_CHUNK, |c| c as usize),
        tally: cfg.tally,
        outputs: &outputs,
        first_out: &first_out,
    };

    // One thread per executing op, each returning what its op produced
    // (nothing, and an idle timing, if it did not run or did not finish).
    let idle = OpTiming {
        start: 0.0,
        end: 0.0,
    };
    let (values, op_timings) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..plan.ops.len())
            .map(|i| {
                graph.lowered(i).then(|| {
                    let my_consumers = std::mem::take(&mut consumers[i]);
                    let my_producers = std::mem::take(&mut producers[i]);
                    let (env, op, retries) = (&env, &plan.ops[i], &retries);
                    scope.spawn(move || {
                        run_op(env, cfg, i, op, my_consumers, &my_producers, retries)
                    })
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.and_then(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .map_or((None, idle), |(value, timing)| (Some(value), timing))
            })
            .unzip()
    });

    AttemptRun {
        values,
        op_timings,
        retries: retries.into_inner(),
        first_out: first_out
            .into_inner()
            .expect("op threads are joined and did not panic"),
    }
}

/// One op input's chunk source.
enum ChunkFeed<'f> {
    /// A local stripe block, fully in memory.
    Whole(&'f [u8]),
    /// An intermediate a previous generation finished (re-served from the
    /// partial pool after a replan): the chunks it was banked as.
    Prefilled(&'f [Chunk]),
    /// A live upstream stream delivering one chunk per message.
    Edge(Receiver<Delivery>),
}

/// The next chunk on a dependency edge, `None` if its producer failed.
fn recv_chunk(rx: &Receiver<Delivery>) -> Option<Chunk> {
    match rx.recv().expect("producer thread panicked") {
        Delivery::Data(c) => Some(c),
        Delivery::Failed => None,
    }
}

/// The sending side of one transfer: the block as it arrives at the
/// receiver, chunk by chunk, and how far it got.
struct SendStream<'f> {
    env: &'f RunEnv<'f, 'f>,
    deadline: Option<Instant>,
    i: usize,
    from: NodeId,
    to: NodeId,
    downstream: &'f [Sender<Delivery>],
    feed: ChunkFeed<'f>,
    /// Byzantine sender: perturb each chunk before digesting it, so the
    /// per-chunk transport checksum validates the lie end-to-end — only
    /// the proof plane can catch it (see `StormFault::Lie`).
    lie: bool,
    /// The chunks in hand so far, in order: the op's value once all are
    /// delivered.
    chunks: Value,
    /// Sender-side transport checksum of every chunk in `chunks`; each
    /// delivery is verified against it on arrival.
    sums: Vec<u64>,
    /// Chunks verified and forwarded downstream so far; a failed attempt
    /// never rewinds this — the retry re-streams from the first
    /// unverified chunk, not from the start of the block.
    delivered: usize,
    first_delivered_t: Option<f64>,
}

impl SendStream<'_> {
    /// Take the next undelivered chunk in hand and digest it. A stripe
    /// block is copied into the pool here, chunk by chunk; an
    /// intermediate already is a pooled chunk — upstream's, or a banked
    /// one — and is sent on as that chunk, not copied. `None` if the
    /// upstream producer died.
    fn ensure(&mut self) -> Option<()> {
        if self.sums.len() > self.delivered {
            return Some(());
        }
        let r = self.env.graph.chunk_range(self.delivered);
        let chunk = match &self.feed {
            ChunkFeed::Whole(w) => self.env.pooled_copy(&w[r.clone()], self.lie),
            ChunkFeed::Prefilled(value) => self.relayed(value[self.delivered].clone()),
            ChunkFeed::Edge(rx) => self.relayed(recv_chunk(rx)?),
        };
        assert_eq!(chunk.len(), r.len(), "op {}: chunk geometry", self.i);
        self.sums.push(checksum64(&chunk));
        self.chunks.push(chunk);
        Some(())
    }

    /// An upstream chunk as this sender puts it on the wire: itself,
    /// unless the sender lies — other holders keep the honest bytes.
    fn relayed(&self, chunk: Chunk) -> Chunk {
        if self.lie {
            self.env.pooled_copy(&chunk, true)
        } else {
            chunk
        }
    }

    /// Move `bytes` of the next undelivered chunk through the shapers,
    /// once upstream has produced it. Returns the wait for the shapers'
    /// first admission; `None` if upstream died or the attempt was
    /// cancelled mid-transfer.
    fn shape(&mut self, bytes: usize) -> Option<f64> {
        self.ensure()?;
        let env = self.env;
        shaped_transfer(
            env.net,
            env.links,
            env.agg,
            self.from,
            self.to,
            bytes,
            env.chunk,
            self.deadline,
        )
    }

    /// Send the next undelivered chunk whole: shaped, verified against its
    /// sender-side digest, and forwarded downstream the moment it is intact.
    fn deliver_next(&mut self) -> Option<f64> {
        let wait = self.shape(self.env.graph.chunk_range(self.delivered).len())?;
        let chunk = &self.chunks[self.delivered];
        assert_eq!(
            checksum64(chunk),
            self.sums[self.delivered],
            "delivered chunk failed verification"
        );
        forward(self.downstream, chunk);
        self.delivered += 1;
        if self.first_delivered_t.is_none() {
            let now = self.env.t0.elapsed().as_secs_f64();
            self.first_delivered_t = Some(now);
            self.env.note_first_out(self.i, now);
        }
        Some(wait)
    }
}

/// Execute op `i`, returning its output and timing — or, if it could not
/// finish (dead helper upstream or here, hedge cancellation), tell every
/// consumer the output will never arrive. The one place a failure is
/// announced downstream.
fn run_op(
    env: &RunEnv<'_, '_>,
    cfg: &AttemptCfg<'_>,
    i: usize,
    op: &Op,
    consumers: Vec<(usize, Receiver<Delivery>)>,
    producers: &[Sender<Delivery>],
    retries: &AtomicUsize,
) -> Option<(Value, OpTiming)> {
    let done = try_op(env, cfg, i, op, consumers, producers, retries);
    if done.is_none() {
        for tx in producers {
            // The consumer may have unwound already under a hedge
            // cancellation; a dropped receiver is fine.
            let _ = tx.send(Delivery::Failed);
        }
    }
    done
}

/// One op, as a stream. Payloads move hop-to-hop in the chunks `env.range`
/// delimits — one chunk, the whole block, unless the context configures a
/// smaller streaming chunk: a send verifies each chunk against its transport
/// checksum and forwards it downstream the moment it is intact, so a
/// retry resumes from the first unverified chunk instead of re-streaming
/// the whole block; a combine folds chunk `j` with the GF kernels as soon
/// as every input's chunk `j` arrived and forwards the folded chunk
/// immediately. With `m` chunks the downstream hop starts after one chunk,
/// not one block — the executor's critical path collapses from
/// `waves × t_block` toward `t_block + (waves − 1) × t_chunk` — and
/// `m == 1` is store-and-forward. Returns `None` if the op did not finish.
fn try_op(
    env: &RunEnv<'_, '_>,
    cfg: &AttemptCfg<'_>,
    i: usize,
    op: &Op,
    consumers: Vec<(usize, Receiver<Delivery>)>,
    producers: &[Sender<Delivery>],
    retries: &AtomicUsize,
) -> Option<(Value, OpTiming)> {
    let (graph, ctx, rec) = (env.graph, env.ctx, env.rec);
    let plan = graph.plan;
    let now = || env.t0.elapsed().as_secs_f64();
    let m = graph.chunks.len();
    let total = plan.block_bytes as usize;

    // The graph's data edges feed payload chunks and come first; its
    // ordering edges (link FIFO, used by slice-pipelined plans) must drain
    // completely before this op may start — they serialize whole ops, as
    // the simulator's chunk-0 dependency on their last chunk does.
    let mut edges = consumers;
    let mut ordered = Some(());
    for (_, rx) in edges.split_off(graph.ops[i].data.len()) {
        if (0..m).any(|_| recv_chunk(&rx).is_none()) {
            ordered = None;
        }
    }

    // An op begins when chunk 0 of every data input is in hand (`ready`).
    // That instant is its start stamp — the simulator's rule, the first
    // attempt of the chunk-0 job — and the instant a crashing helper is found
    // dead: the crash trigger's node dies just after that send begins, so
    // the send is queued, started and failed here, as on the simulator.
    let begin = |ready: Option<()>| -> Option<f64> {
        let exec_node = match op {
            Op::Send { from, .. } => *from,
            Op::Combine { node, .. } => *node,
        };
        let crash = cfg.faults.crash;
        let down = crash.is_some_and(|c| c.node == exec_node && i >= c.trigger.0);
        if ready.is_some() && !down {
            return Some(now());
        }
        if let Some(c) = crash.filter(|c| c.trigger.0 == i) {
            let t = now();
            if let Op::Send { .. } = op {
                let xfer = send_transfer(plan, ctx.topo, env.waves, cfg.tag, i);
                rec.emit(|| Event::TransferQueued {
                    xfer: xfer.clone(),
                    t,
                });
                rec.emit(|| Event::TransferStarted {
                    xfer: xfer.clone(),
                    queue_wait: 0.0,
                    t,
                });
                rec.emit(|| Event::TransferFailed {
                    xfer,
                    attempt: 0,
                    reason: reason::NODE_DOWN.to_string(),
                    t,
                });
            }
            rec.emit(|| Event::HelperCrashed {
                node: c.node.0,
                rack: ctx.topo.rack_of(c.node).0,
                t,
            });
        }
        None
    };

    match op {
        Op::Send { what, from, to } => {
            let mut s = SendStream {
                env,
                deadline: cfg.deadline,
                i,
                from: *from,
                to: *to,
                downstream: producers,
                feed: match what {
                    Payload::Block(b) => ChunkFeed::Whole(env.stripe[b.0].as_slice()),
                    Payload::Intermediate(o) => feed_for(cfg, &mut edges, o.0),
                },
                lie: cfg.faults.lies.contains(&i),
                chunks: Vec::with_capacity(m),
                sums: Vec::with_capacity(m),
                delivered: 0,
                first_delivered_t: None,
            };
            let started = begin(ordered.and_then(|()| s.ensure()))?;
            let xfer = send_transfer(plan, ctx.topo, env.waves, cfg.tag, i);
            let injected = &cfg.faults.op_faults[i];

            for (a, fault) in injected.iter().enumerate() {
                let queued = now();
                rec.emit(|| Event::TransferQueued {
                    xfer: xfer.clone(),
                    t: queued,
                });
                // The wait for this attempt's first shaper admission.
                let mut admitted: Option<f64> = None;
                let corrupt = fault.reason == reason::CORRUPT;
                // A timed-out attempt stalls after `fraction` of the block,
                // counted from the block's start. Whole chunks inside that
                // prefix get through intact and stay verified and forwarded;
                // the last chunk never does.
                let part = (total as f64 * fault.fraction) as usize;
                while !corrupt && s.delivered + 1 < m && graph.chunk_range(s.delivered).end <= part
                {
                    let wait = s.deliver_next()?;
                    admitted.get_or_insert(wait);
                }
                // What the attempt moves and loses: on a timeout the rest of
                // the prefix, a partial chunk; on corruption the whole next
                // chunk, which arrives with a flipped byte, fails its
                // checksum, and is neither forwarded nor counted as verified.
                let r = graph.chunk_range(s.delivered);
                let lost = if corrupt {
                    r.len()
                } else {
                    part.saturating_sub(r.start)
                };
                if lost > 0 {
                    let wait = s.shape(lost)?;
                    admitted.get_or_insert(wait);
                }
                if corrupt {
                    let mut bad = env.checkout(r.len());
                    bad.copy_from_slice(&s.chunks[s.delivered]);
                    bad[0] ^= 0x01;
                    assert_ne!(
                        checksum64(&bad),
                        s.sums[s.delivered],
                        "checksum must detect injected corruption"
                    );
                }
                let admitted = admitted.unwrap_or(0.0);
                rec.emit(|| Event::TransferStarted {
                    xfer: xfer.clone(),
                    queue_wait: admitted,
                    t: queued + admitted,
                });
                let failed = now();
                rec.emit(|| Event::TransferFailed {
                    xfer: xfer.clone(),
                    attempt: a,
                    reason: fault.reason.to_string(),
                    t: failed,
                });
                let delay = cfg.policy.delay(a);
                rec.emit(|| Event::RetryScheduled {
                    label: xfer.label.clone(),
                    rack: xfer.src_rack,
                    attempt: a,
                    delay,
                    t: failed,
                });
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_secs_f64(delay));
            }

            // The (final) successful attempt streams the rest.
            let queued = now();
            rec.emit(|| Event::TransferQueued {
                xfer: xfer.clone(),
                t: queued,
            });
            let admitted = s.deliver_next()?;
            rec.emit(|| Event::TransferStarted {
                xfer: xfer.clone(),
                queue_wait: admitted,
                t: queued + admitted,
            });
            while s.delivered < m {
                s.deliver_next()?;
            }
            let end = now();
            rec.emit(|| Event::TransferDone {
                xfer: xfer.clone(),
                start: queued + admitted,
                end,
            });
            if m > 1 {
                // Cut-through only: a one-chunk stream is the transfer.
                rec.emit(|| {
                    stream_summary(
                        xfer,
                        m,
                        graph.chunks[0],
                        started,
                        s.first_delivered_t.expect("streamed >= 1 chunk"),
                        end,
                    )
                });
            }
            Some((
                s.chunks,
                OpTiming {
                    start: started,
                    end,
                },
            ))
        }
        Op::Combine { node, inputs, .. } => {
            let feeds: Vec<ChunkFeed<'_>> = inputs
                .iter()
                .map(|inp| match inp {
                    Input::Block {
                        block, via: None, ..
                    } => ChunkFeed::Whole(env.stripe[block.0].as_slice()),
                    Input::Block { via: Some(o), .. } | Input::Intermediate(o) => {
                        feed_for(cfg, &mut edges, o.0)
                    }
                })
                .collect();
            // Gather the next chunk's upstream deliveries — always BEFORE
            // taking the node's CPU lock: another combine on the same node
            // may be the producer of one of these edges, and holding the
            // lock across recv would deadlock the pair.
            let mut arrived: Vec<Option<Chunk>> = vec![None; feeds.len()];
            let gather = |arrived: &mut [Option<Chunk>]| -> Option<()> {
                for (slot, feed) in arrived.iter_mut().zip(&feeds) {
                    if let ChunkFeed::Edge(rx) = feed {
                        *slot = Some(recv_chunk(rx)?);
                    }
                }
                Some(())
            };
            let started = begin(ordered.and_then(|()| gather(&mut arrived)))?;

            // Model the decode pace of the target machine: the real folds
            // run first (verifying the bytes), then the thread is paced up
            // to the graph's modeled seconds so scaled-down experiments
            // keep the paper's decode-to-transfer proportions.
            // CostModel::free() disables pacing entirely. Only time holding
            // the node's CPU counts as `spent`: a combine that waited for
            // the lock has not computed yet, so two combines on one node
            // take the sum of their modeled times, as on the simulator's
            // CPU resource. The job the graph marks derives the decoding
            // matrix, and its modeled seconds carry the surcharge.
            let jobs = graph.op_jobs(i);
            let mut modeled = 0.0f64;
            let mut spent = 0.0f64;
            let kernel = combine_kernel(plan, i).expect("op is a combine");
            if jobs[0].builds_matrix {
                let _cpu = lock(&env.links[node.0].cpu);
                let held = Instant::now();
                build_decoding_matrix(ctx);
                spent += held.elapsed().as_secs_f64();
            }
            let mut out: Value = Vec::with_capacity(m);
            for j in 0..m {
                if j > 0 {
                    gather(&mut arrived)?;
                }
                let r = graph.chunk_range(j);
                let _cpu = lock(&env.links[node.0].cpu);
                let held = Instant::now();
                // Fold every input straight into the pooled chunk that is
                // forwarded: the first input overwrites whatever the
                // buffer held, the rest accumulate.
                let mut dst = env.checkout(r.len());
                for (f, (feed, input)) in feeds.iter().zip(inputs).enumerate() {
                    let chunk: &[u8] = match feed {
                        ChunkFeed::Whole(w) => &w[r.clone()],
                        ChunkFeed::Prefilled(value) => &value[j],
                        ChunkFeed::Edge(_) => arrived[f].as_ref().expect("gathered above"),
                    };
                    match (input, f) {
                        // Zero terms are filtered at equation build;
                        // folding one here would hide a plan bug.
                        (Input::Block { coeff: 0, .. }, _) => panic!("combine: zero coefficient"),
                        (Input::Block { coeff, .. }, 0) => {
                            rpr_gf::mul_slice(*coeff, chunk, &mut dst)
                        }
                        (Input::Block { coeff, .. }, _) => {
                            rpr_gf::mul_acc_slice(*coeff, chunk, &mut dst)
                        }
                        (Input::Intermediate(_), 0) => dst.copy_from_slice(chunk),
                        (Input::Intermediate(_), _) => rpr_gf::xor_slice(&mut dst, chunk),
                    }
                }
                modeled += jobs[j].seconds;
                arrived.iter_mut().for_each(|a| *a = None);
                let chunk: Chunk = Arc::new(dst);
                // Pace the stream to the modeled decode rate before
                // forwarding, so downstream sees chunks at the pace the
                // target machine would produce them.
                let behind = modeled - spent - held.elapsed().as_secs_f64();
                if behind.is_finite() && behind > 0.0 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(behind));
                }
                forward(producers, &chunk);
                out.push(chunk);
                spent += held.elapsed().as_secs_f64();
                if j == 0 {
                    // The degraded-read cut-through moment: the first
                    // decoded chunk of a reconstructed block exists at
                    // the recovery node while the rest is in flight.
                    env.note_first_out(i, now());
                }
            }
            let end = now();
            rec.emit(|| Event::CombineDone {
                label: op_label(plan, cfg.tag, i, None),
                node: node.0,
                rack: ctx.topo.rack_of(*node).0,
                kernel,
                inputs: inputs.len(),
                bytes: plan.block_bytes,
                start: started,
                end,
            });
            Some((
                out,
                OpTiming {
                    start: started,
                    end,
                },
            ))
        }
    }
}

/// The chunk feed of an input produced by op `dep`: the prefilled value
/// after a replan, the live channel edge otherwise.
fn feed_for<'f>(
    cfg: &AttemptCfg<'f>,
    edges: &mut Vec<(usize, Receiver<Delivery>)>,
    dep: usize,
) -> ChunkFeed<'f> {
    match cfg.prefilled[dep] {
        Some(value) => ChunkFeed::Prefilled(value),
        None => {
            let at = edges.iter().position(|(d, _)| *d == dep);
            let (_, rx) = edges.swap_remove(at.expect("lowered dependency has an edge"));
            ChunkFeed::Edge(rx)
        }
    }
}

/// Reconstructed blocks, in plan-output order ([`ExecReport::recovered`]).
type Recovered = Vec<(BlockId, Arc<Vec<u8>>)>;

/// The byte-for-byte check of a repair: each plan output `(target, op)`
/// with the value its op produced, assembled and compared with the lost
/// original. Returns the mismatching targets and every reconstructed
/// block.
///
/// # Errors
/// [`ExecError::Unrecoverable`] when an output has no value.
pub(crate) fn verify_outputs<'v>(
    stripe: &[Vec<u8>],
    outputs: impl Iterator<Item = ((BlockId, OpId), Option<&'v [Chunk]>)>,
) -> Result<(Vec<BlockId>, Recovered), ExecError> {
    let mut mismatches = Vec::new();
    let mut recovered = Vec::new();
    for ((target, op), value) in outputs {
        let value = value
            .ok_or_else(|| ExecError::Unrecoverable(format!("output {op:?} never produced")))?;
        let got = assemble(value);
        if got.as_slice() != stripe[target.0].as_slice() {
            mismatches.push(target);
        }
        recovered.push((target, got));
    }
    Ok((mismatches, recovered))
}

/// Move `len` bytes from `from` to `to` through the shapers: the private
/// pair-rate bucket plus the shared per-node (and, cross-rack, cross-class)
/// buckets. Returns the seconds spent waiting for the shapers to admit the
/// *first* chunk — the transfer's queue wait under link contention — or
/// `None` when `deadline` passed between shaper admissions (the transfer
/// was abandoned mid-stream by a hedge).
#[allow(clippy::too_many_arguments)]
fn shaped_transfer(
    net: &Network,
    links: &[NodeLinks],
    agg: Option<&TokenBucket>,
    from: NodeId,
    to: NodeId,
    len: usize,
    granularity: usize,
    deadline: Option<Instant>,
) -> Option<f64> {
    let flow = TokenBucket::new(net.pair_rate(from, to));
    let cross = net.is_cross(from, to);
    let entered = Instant::now();
    let mut first_admit = 0.0f64;
    let mut left = len;
    while left > 0 {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        let take = left.min(granularity) as f64;
        flow.take(take);
        links[from.0].up.take(take);
        links[to.0].down.take(take);
        if cross {
            links[from.0].xup.take(take);
            links[to.0].xdown.take(take);
            if let Some(bucket) = agg {
                bucket.take(take);
            }
        }
        if left == len {
            first_admit = entered.elapsed().as_secs_f64();
        }
        left -= take as usize;
    }
    Some(first_admit)
}

/// Perform a genuine decoding-matrix construction, the work Jerasure does
/// before a matrix-based decode: the planners' own coefficient derivation
/// ([`StripeCodec::repair_equations`](rpr_codec::StripeCodec::repair_equations))
/// over the first `n` survivors.
fn build_decoding_matrix(ctx: &RepairContext<'_>) {
    let helpers: Vec<_> = ctx.survivors().into_iter().take(ctx.params().n).collect();
    // Keep the optimizer honest.
    std::hint::black_box(ctx.codec.repair_equations(&ctx.failed, &helpers));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{execute, execute_recorded};
    use rpr_codec::{CodeParams, StripeCodec};
    use rpr_core::{CostModel, RepairPlan, RepairPlanner, RprPlanner, TraditionalPlanner};
    use rpr_topology::{cluster_for, BandwidthProfile, Placement};

    /// The plan outputs an attempt reconstructed wrongly.
    fn mismatches(plan: &RepairPlan, stripe: &[Vec<u8>], run: &AttemptRun) -> Vec<BlockId> {
        let values = (plan.outputs.iter()).map(|&out| (out, run.values[out.1 .0].as_deref()));
        verify_outputs(stripe, values).expect("every output ran").0
    }

    pub(crate) fn stripe_for(codec: &StripeCodec, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let n = codec.params().n;
        let mut s = seed | 1;
        let data: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (s >> 33) as u8
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|b| b.as_slice()).collect();
        codec.encode_stripe(&refs)
    }

    /// A fast retry policy so backoff sleeps stay in the milliseconds.
    pub(crate) fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff: 0.01,
            multiplier: 2.0,
        }
    }

    #[test]
    fn rpr_plan_executes_and_verifies() {
        let params = CodeParams::new(6, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        // Fast links so the test runs quickly: 80 MB/s inner, 8 MB/s cross.
        let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
        let block = 128 * 1024u64;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&codec, &topo, &placement).expect("valid");

        let stripe = stripe_for(&codec, block as usize, 42);
        let report = execute(&plan, &ctx, &stripe);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);
        assert!(report.wall_seconds > 0.0);
        assert_eq!(
            report.cross_bytes,
            plan.stats(&topo).cross_bytes,
            "executor and plan must agree on traffic"
        );
    }

    #[test]
    fn recorded_execution_emits_a_consistent_trace() {
        let params = CodeParams::new(6, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::rpr_preplaced(params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
        let block = 128 * 1024u64;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        let stripe = stripe_for(&codec, block as usize, 11);
        let rec = rpr_obs::TraceRecorder::default();
        let report = execute_recorded(&plan, &ctx, &stripe, &rec);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);

        let events = rec.take_events();
        // Traffic folded from the trace agrees with the executor's own
        // accounting.
        let bytes = |cross: bool| -> u64 {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::TransferDone { xfer, .. } if xfer.cross == cross => Some(xfer.bytes),
                    _ => None,
                })
                .sum()
        };
        assert_eq!(bytes(true), report.cross_bytes);
        assert_eq!(bytes(false), report.inner_bytes);
        assert!(matches!(events[0], Event::PlanBuilt { .. }));
        assert!(matches!(events.last().unwrap(), Event::RepairDone { .. }));
        let stats = plan.stats(&topo);
        let dones = events
            .iter()
            .filter(|e| matches!(e, Event::TransferDone { .. }))
            .count();
        assert_eq!(dones, stats.cross_transfers + stats.inner_transfers);
        let combines = events
            .iter()
            .filter(|e| matches!(e, Event::CombineDone { .. }))
            .count();
        assert_eq!(combines, stats.combines);
        // Wave boundaries cover every advertised timestep.
        let (_, wave_count) = plan.cross_waves(&topo);
        let finished = events
            .iter()
            .filter(|e| matches!(e, Event::TimestepFinished { .. }))
            .count();
        assert_eq!(finished, wave_count);
    }

    #[test]
    fn traditional_multi_failure_executes_and_verifies() {
        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::compact(params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
        let block = 64 * 1024u64;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0), BlockId(3)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = TraditionalPlanner::new().plan(&ctx);
        plan.validate(&codec, &topo, &placement).expect("valid");
        let stripe = stripe_for(&codec, block as usize, 7);
        let report = execute(&plan, &ctx, &stripe);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn executor_detects_corrupted_source_data() {
        // Feed the executor a stripe whose parity is inconsistent: the
        // reconstruction must NOT verify (negative control for the
        // verification logic).
        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::compact(params, &topo);
        let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
        let block = 16 * 1024u64;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(1)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = RprPlanner::new().plan(&ctx);
        let mut stripe = stripe_for(&codec, block as usize, 9);
        stripe[4][0] ^= 0xFF; // corrupt p0
        let report = execute(&plan, &ctx, &stripe);
        // The plan uses p0 (or not); either way flipping a parity byte can
        // only break verification if that block participated.
        let uses_p0 = plan.ops.iter().any(|op| match op {
            Op::Send {
                what: Payload::Block(b),
                ..
            } => b.0 == 4,
            Op::Combine { inputs, .. } => inputs
                .iter()
                .any(|i| matches!(i, Input::Block { block, .. } if block.0 == 4)),
            _ => false,
        });
        assert_eq!(report.verified, !uses_p0);
    }

    #[test]
    fn transfer_time_reflects_the_shaped_rate() {
        let params = CodeParams::new(4, 2);
        let codec = StripeCodec::new(params);
        let topo = cluster_for(params, 1, 1);
        let placement = Placement::compact(params, &topo);
        // 2 MB/s cross: a 256 KiB cross transfer should take ~0.13 s.
        let profile = BandwidthProfile::uniform(topo.rack_count(), 20.0e6, 2.0e6);
        let block = 256 * 1024u64;
        let ctx = RepairContext::new(
            &codec,
            &topo,
            &placement,
            vec![BlockId(0)],
            block,
            &profile,
            CostModel::free(),
        );
        let plan = TraditionalPlanner::new().plan(&ctx);
        let stripe = stripe_for(&codec, block as usize, 3);
        let report = execute(&plan, &ctx, &stripe);
        // 4 cross transfers serialize on the recovery node's cross class:
        // 4 * 256 KiB / 2 MB/s ≈ 0.52 s (minus burst allowances).
        assert!(
            (0.30..1.2).contains(&report.wall_seconds),
            "wall {}",
            report.wall_seconds
        );
        assert!(report.verified);
    }

    pub(crate) struct Fx {
        pub(crate) codec: StripeCodec,
        topo: rpr_topology::Topology,
        placement: Placement,
        profile: BandwidthProfile,
        pub(crate) block: u64,
    }

    impl Fx {
        pub(crate) fn new(n: usize, k: usize, block: u64) -> Fx {
            let params = CodeParams::new(n, k);
            let topo = cluster_for(params, 1, 1);
            let placement = Placement::rpr_preplaced(params, &topo);
            let profile = BandwidthProfile::uniform(topo.rack_count(), 80.0e6, 8.0e6);
            Fx {
                codec: StripeCodec::new(params),
                topo,
                placement,
                profile,
                block,
            }
        }

        pub(crate) fn ctx(&self, failed: Vec<BlockId>) -> RepairContext<'_> {
            RepairContext::new(
                &self.codec,
                &self.topo,
                &self.placement,
                failed,
                self.block,
                &self.profile,
                CostModel::free(),
            )
        }
    }

    impl Fx {
        pub(crate) fn ctx_chunked(&self, failed: Vec<BlockId>, chunk: u64) -> RepairContext<'_> {
            self.ctx(failed).with_chunk_size(chunk)
        }
    }

    #[test]
    fn streamed_execution_verifies_with_a_ragged_tail_chunk() {
        // Block size deliberately NOT a multiple of the chunk: the last
        // chunk is a 7-byte tail, exercising the ragged-range plumbing
        // end to end (checksums, GF folds, and forwarding).
        let fx = Fx::new(6, 2, 96 * 1024 + 7);
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 10_000);
        let plan = RprPlanner::new().plan(&ctx);
        plan.validate(&fx.codec, &fx.topo, &fx.placement)
            .expect("valid");
        let stripe = stripe_for(&fx.codec, fx.block as usize, 101);
        let report = execute(&plan, &ctx, &stripe);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);
        assert_eq!(
            report.cross_bytes,
            plan.stats(&fx.topo).cross_bytes,
            "chunked streaming must move exactly the planned traffic"
        );
    }

    #[test]
    fn streamed_execution_of_a_block_level_plan_verifies() {
        // A plan built WITHOUT streaming (star-shaped cross pipeline)
        // must still reconstruct correctly when executed chunked.
        let fx = Fx::new(6, 3, 64 * 1024);
        let block_ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&block_ctx);
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 4 * 1024);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 13);
        let report = execute(&plan, &ctx, &stripe);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn chunk_at_or_above_block_size_is_a_one_chunk_stream() {
        let fx = Fx::new(4, 2, 32 * 1024);
        let plain_ctx = fx.ctx(vec![BlockId(1)]);
        let plan = RprPlanner::new().plan(&plain_ctx);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 19);
        let run = |ctx: &RepairContext<'_>| {
            let rec = rpr_obs::TraceRecorder::default();
            let report = execute_recorded(&plan, ctx, &stripe, &rec);
            let mut names: Vec<&str> = rec.take_events().iter().map(|e| e.name()).collect();
            names.sort_unstable();
            (report, names)
        };
        let (plain, plain_names) = run(&plain_ctx);
        assert!(
            !plain_names.contains(&"stream_summary"),
            "a one-chunk stream is no cut-through"
        );
        let checkouts = |r: &ExecReport| r.arena.fresh + r.arena.recycled;
        for chunk in [fx.block, fx.block + 1, fx.block * 8] {
            let ctx = fx.ctx_chunked(vec![BlockId(1)], chunk);
            let (report, names) = run(&ctx);
            assert!(report.verified);
            assert_eq!(report.cross_bytes, plain.cross_bytes);
            assert_eq!(report.inner_bytes, plain.inner_bytes);
            assert_eq!(names, plain_names, "chunk {chunk}");
            assert_eq!(checkouts(&report), checkouts(&plain), "chunk {chunk}");
        }
    }

    #[test]
    fn a_relaying_send_and_a_replan_forward_the_chunks_they_were_given() {
        // A send of an intermediate puts its producer's chunks on the
        // wire, and a later generation that finds the producer's value
        // banked (a replan around a crash elsewhere) puts the banked
        // chunks on the wire: the same buffers by address, in block mode
        // and streamed, with a ragged tail.
        let fx = Fx::new(6, 3, 16 * 1024 + 5);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 71);
        for (mode, ctx) in [
            ("block", fx.ctx(vec![BlockId(1)])),
            ("streamed", fx.ctx_chunked(vec![BlockId(1)], 4 * 1024)),
        ] {
            let plan = RprPlanner::new().plan(&ctx);
            let (relay, producer) = plan
                .ops
                .iter()
                .enumerate()
                .find_map(|(i, op)| match op {
                    Op::Send {
                        what: Payload::Intermediate(o),
                        ..
                    } => Some((i, o.0)),
                    _ => None,
                })
                .expect("the plan forwards an intermediate");
            let tally = Tally::default();
            let faults = ResolvedFaults {
                op_faults: vec![Vec::new(); plan.ops.len()],
                crash: None,
                slow: Vec::new(),
                lies: Vec::new(),
            };
            let attempt = |lowered: &[bool], prefilled: &[Option<&[Chunk]>]| {
                let cfg = AttemptCfg {
                    faults: &faults,
                    policy: fast_policy(),
                    prefilled,
                    graph: &JobGraph::new(&plan, lowered, &ctx),
                    tag: 0,
                    deadline: None,
                    tally: &tally,
                };
                run_attempt(&ctx, &stripe, rpr_obs::noop(), Instant::now(), &cfg)
            };
            let same = |a: &[Chunk], b: &[Chunk]| {
                a.len() == b.len() && a.iter().zip(b).all(|(a, b)| Arc::ptr_eq(a, b))
            };

            let mut lowered = vec![true; plan.ops.len()];
            let mut prefilled = vec![None; plan.ops.len()];
            let first = attempt(&lowered, &prefilled);
            let banked = first.values[producer].as_deref().expect("producer ran");
            let graph = JobGraph::new(&plan, &lowered, &ctx);
            assert_eq!(banked.len(), graph.chunks.len(), "{mode}");
            let relayed = first.values[relay].as_deref().expect("relay ran");
            assert!(same(relayed, banked), "{mode}: a live relay copied");

            lowered[producer] = false;
            prefilled[producer] = Some(banked);
            let second = attempt(&lowered, &prefilled);
            assert!(second.values[producer].is_none(), "{mode}: served, not run");
            let reserved = second.values[relay].as_deref().expect("relay ran again");
            assert!(same(reserved, banked), "{mode}: a re-serve copied");
            let wrong = mismatches(&plan, &stripe, &second);
            assert!(wrong.is_empty(), "{mode}: {wrong:?}");
        }
    }

    #[test]
    fn a_timed_out_attempt_pays_the_shaper_floor_for_its_prefix() {
        // One rule for every chunk count: the failing attempt moves
        // `fraction` of the block through the shapers before it fails. A
        // token bucket never passes more than what it holds (its burst, or
        // one shaper granule if that is larger) plus `rate x dt` in `dt`,
        // and the attempt's first granule is admitted before
        // `transfer_started` is stamped, so the started -> failed interval
        // has a floor that scheduling noise can only exceed.
        let fx = Fx::new(6, 2, 2 * 1024 * 1024);
        let fraction = 0.3;
        let part = (fx.block as f64 * fraction) as usize;
        let stripe = stripe_for(&fx.codec, fx.block as usize, 61);
        for (mode, ctx) in [
            ("block", fx.ctx(vec![BlockId(1)])),
            ("streamed", fx.ctx_chunked(vec![BlockId(1)], 4 * 1024)),
        ] {
            let plan = RprPlanner::new().plan(&ctx);
            let (op, from, to) = plan
                .ops
                .iter()
                .enumerate()
                .find_map(|(i, op)| match op {
                    Op::Send { from, to, .. } if !fx.topo.same_rack(*from, *to) => {
                        Some((i, *from, *to))
                    }
                    _ => None,
                })
                .expect("the plan crosses racks");
            let mut op_faults = vec![Vec::new(); plan.ops.len()];
            op_faults[op].push(rpr_core::AttemptFault {
                fraction,
                reason: reason::TIMEOUT,
            });
            let faults = ResolvedFaults {
                op_faults,
                crash: None,
                slow: Vec::new(),
                lies: Vec::new(),
            };
            let graph = JobGraph::new(&plan, &vec![true; plan.ops.len()], &ctx);
            let prefilled = vec![None; plan.ops.len()];
            let tally = Tally::default();
            let cfg = AttemptCfg {
                faults: &faults,
                policy: fast_policy(),
                prefilled: &prefilled,
                graph: &graph,
                tag: 0,
                deadline: None,
                tally: &tally,
            };
            let rec = rpr_obs::TraceRecorder::default();
            let t0 = Instant::now();
            let run = run_attempt(&ctx, &stripe, &rec, t0, &cfg);
            assert_eq!(run.retries, 1, "{mode}");
            let wrong = mismatches(&plan, &stripe, &run);
            assert!(wrong.is_empty(), "{mode}: {wrong:?}");

            let label = format!("p0op{op}:send");
            let events = rec.take_events();
            let started = events
                .iter()
                .find_map(|e| match e {
                    Event::TransferStarted { xfer, t, .. } if xfer.label == label => Some(*t),
                    _ => None,
                })
                .expect("the failing attempt started");
            let failed = events
                .iter()
                .find_map(|e| match e {
                    Event::TransferFailed { xfer, t, .. } if xfer.label == label => Some(*t),
                    _ => None,
                })
                .expect("the attempt failed");
            let rate = fx.profile.rate(fx.topo.rack_of(from), fx.topo.rack_of(to));
            let granule = ctx
                .effective_chunk()
                .map_or(DEFAULT_SHAPER_CHUNK, |c| c as usize);
            let held = TokenBucket::new(rate).burst().max(granule as f64);
            let floor = ((part - granule) as f64 - held) / rate;
            assert!(
                floor > 0.03,
                "the floor must be far above timer noise: {floor}"
            );
            assert!(
                failed - started >= floor,
                "{mode}: a timed-out attempt moved {part} bytes in {} s, under the shaper floor {floor} s",
                failed - started
            );
        }
    }

    #[test]
    fn combines_on_one_node_pace_to_the_sum_of_their_modeled_times() {
        // Two failures, traditional repair: both decodes run at the
        // recovery node and become ready together. A node has one CPU
        // (the simulator's resource), so from the first combine's start
        // to the last one's end at least the sum of their modeled times
        // passes — waiting for the CPU is not computing. Sleeps only
        // overshoot, so the bound cannot flake.
        let fx = Fx::new(4, 2, 128 * 1024);
        let rate = 8.0e6; // every fold of a block is modeled at 16 ms
        let cost = CostModel {
            xor_rate: rate,
            gf_rate: rate,
            matrix_build_seconds: 0.0,
        };
        let stripe = stripe_for(&fx.codec, fx.block as usize, 67);
        for (mode, chunk) in [("block", None), ("streamed", Some(16 * 1024))] {
            let ctx = RepairContext::new(
                &fx.codec,
                &fx.topo,
                &fx.placement,
                vec![BlockId(0), BlockId(3)],
                fx.block,
                &fx.profile,
                cost,
            );
            let ctx = match chunk {
                Some(c) => ctx.with_chunk_size(c),
                None => ctx,
            };
            let plan = TraditionalPlanner::new().plan(&ctx);
            let report = execute(&plan, &ctx, &stripe);
            assert!(report.verified, "{mode}: {:?}", report.mismatches);

            let mut modeled = 0.0;
            let (mut first_start, mut last_end) = (f64::INFINITY, 0.0f64);
            let mut at = None;
            for (op, t) in plan.ops.iter().zip(&report.op_timings) {
                if let Op::Combine { node, inputs, .. } = op {
                    assert_eq!(*at.get_or_insert(*node), *node, "one decoding node");
                    modeled += inputs.len() as f64 * fx.block as f64 / rate;
                    first_start = first_start.min(t.start);
                    last_end = last_end.max(t.end);
                }
            }
            assert!(modeled > 0.1, "two four-input decodes: {modeled}");
            assert!(
                last_end - first_start >= modeled,
                "{mode}: combines modeled at {modeled} s took {} s on one CPU",
                last_end - first_start
            );
        }
    }

    #[test]
    fn the_matrix_surcharge_is_paid_once_per_node() {
        // The exec twin of the simulator's test: two failures, traditional
        // repair, both decodes GF combines at the recovery node, folds
        // free. The graph marks one of them to derive the decoding matrix,
        // so the pair spans the 0.5 s surcharge once, not twice.
        let fx = Fx::new(4, 2, 64 * 1024);
        let cost = CostModel {
            xor_rate: f64::INFINITY,
            gf_rate: f64::INFINITY,
            matrix_build_seconds: 0.5,
        };
        let stripe = stripe_for(&fx.codec, fx.block as usize, 73);
        for (mode, chunk) in [("block", None), ("streamed", Some(16 * 1024))] {
            let ctx = RepairContext::new(
                &fx.codec,
                &fx.topo,
                &fx.placement,
                vec![BlockId(0), BlockId(3)],
                fx.block,
                &fx.profile,
                cost,
            );
            let ctx = match chunk {
                Some(c) => ctx.with_chunk_size(c),
                None => ctx,
            };
            let plan = TraditionalPlanner::new().plan(&ctx);
            let report = execute(&plan, &ctx, &stripe);
            assert!(report.verified, "{mode}: {:?}", report.mismatches);

            let (mut first_start, mut last_end) = (f64::INFINITY, 0.0f64);
            let mut combines = 0;
            for (op, t) in plan.ops.iter().zip(&report.op_timings) {
                if let Op::Combine { .. } = op {
                    combines += 1;
                    first_start = first_start.min(t.start);
                    last_end = last_end.max(t.end);
                }
            }
            assert_eq!(combines, 2, "{mode}: two decodes");
            let span = last_end - first_start;
            assert!(
                (0.5..0.9).contains(&span),
                "{mode}: combines with one 0.5 s surcharge took {span} s"
            );
        }
    }

    #[test]
    fn streamed_trace_has_consistent_event_counts_and_summaries() {
        let fx = Fx::new(6, 2, 64 * 1024);
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 8 * 1024);
        let plan = RprPlanner::new().plan(&ctx);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 23);
        let rec = rpr_obs::TraceRecorder::default();
        let report = execute_recorded(&plan, &ctx, &stripe, &rec);
        assert!(report.verified, "mismatches: {:?}", report.mismatches);

        let stats = plan.stats(&fx.topo);
        let events = rec.take_events();
        // Event volume stays bounded: one TransferDone and ONE
        // StreamSummary per send edge, never one per chunk.
        let dones = events
            .iter()
            .filter(|e| matches!(e, Event::TransferDone { .. }))
            .count();
        assert_eq!(dones, stats.cross_transfers + stats.inner_transfers);
        let m = fx.block.div_ceil(8 * 1024) as usize;
        assert!(m > 1, "test must actually stream");
        for e in &events {
            if let Event::StreamSummary {
                xfer,
                chunks,
                chunk_bytes,
                first_chunk_latency,
                throughput,
                ..
            } = e
            {
                assert_eq!(*chunks, m);
                assert_eq!(*chunk_bytes, 8 * 1024);
                assert_eq!(xfer.bytes, fx.block);
                assert!(*first_chunk_latency >= 0.0);
                assert!(throughput.is_finite() && *throughput > 0.0);
            }
        }
        let summaries = events
            .iter()
            .filter(|e| matches!(e, Event::StreamSummary { .. }))
            .count();
        assert_eq!(summaries, stats.cross_transfers + stats.inner_transfers);
        let combines = events
            .iter()
            .filter(|e| matches!(e, Event::CombineDone { .. }))
            .count();
        assert_eq!(combines, stats.combines);
    }

    #[test]
    fn streamed_reconstruction_is_byte_identical_across_geometries_and_chunks() {
        // Property-style sweep: for each paper code geometry and a spread
        // of chunk sizes (including non-divisors of the block), chunked
        // cut-through must reconstruct the same bytes the codec predicts
        // (the executor's verification recomputes ground truth).
        for (n, k) in [(4usize, 2usize), (6, 2), (6, 3)] {
            let fx = Fx::new(n, k, 24 * 1024 + 11);
            for &chunk in &[1_024u64, 7_777, 24 * 1024 + 11] {
                let ctx = fx.ctx_chunked(vec![BlockId(1)], chunk);
                let plan = RprPlanner::new().plan(&ctx);
                let stripe = stripe_for(&fx.codec, fx.block as usize, (n * 31 + k) as u64 ^ chunk);
                let report = execute(&plan, &ctx, &stripe);
                assert!(
                    report.verified,
                    "({n},{k}) chunk {chunk}: {:?}",
                    report.mismatches
                );
                assert_eq!(report.cross_bytes, plan.stats(&fx.topo).cross_bytes);
            }
        }
    }

    #[test]
    fn streaming_collapses_the_executor_critical_path() {
        // The paper-scale acceptance check at (6, 3): under cut-through
        // streaming the measured wall clock must approach the analytical
        // `t_block + (waves - 1) * t_chunk` instead of store-and-forward's
        // `waves * t_block`. 4 MiB blocks over the fixture's 8 MB/s cross
        // links give t_block ~ 0.52 s, so the two regimes are far apart
        // relative to shaper noise (20 ms token-bucket bursts).
        let fx = Fx::new(6, 3, 4 * 1024 * 1024);
        let block_ctx = fx.ctx(vec![BlockId(1)]);
        let block_plan = RprPlanner::new().plan(&block_ctx);
        let stripe = stripe_for(&fx.codec, fx.block as usize, 4242);

        // 512 KiB chunks (8 per block): every TokenBucket::take that must
        // wait sleeps, and sleeps quantize at the kernel tick (~5-10 ms),
        // so each chunk carries ~20 ms of scheduler tax across the bucket
        // chain. Fewer, larger chunks keep that tax small next to the
        // 65 ms per-chunk transfer time.
        let ctx = fx.ctx_chunked(vec![BlockId(1)], 512 * 1024);
        let plan = RprPlanner::new().plan(&ctx);
        let analytical = rpr_core::simulate(&plan, &ctx).repair_time;

        // The load-bearing assertion is the RATIO: both walls inflate
        // together under a loaded test machine, while absolute bounds
        // against the analytical number would flake. The analytical
        // brackets are deliberately loose sanity rails — the tight
        // model-vs-closed-form check lives in rpr-core's sim tests.
        // A single measurement of each wall can still flake when the
        // parallel test harness steals the CPU mid-run, so take the
        // best of up to three paired measurements before failing.
        let mut last = (f64::INFINITY, f64::INFINITY);
        for attempt in 0..3 {
            let block_wall = execute(&block_plan, &block_ctx, &stripe).wall_seconds;
            let report = execute(&plan, &ctx, &stripe);
            assert!(report.verified, "mismatches: {:?}", report.mismatches);
            last = (
                last.0.min(report.wall_seconds / block_wall),
                last.1.min(report.wall_seconds),
            );
            let collapsed = last.0 < 0.85;
            let on_rails = (0.7 * analytical..2.0 * analytical).contains(&last.1);
            if collapsed && on_rails {
                return;
            }
            assert!(
                attempt < 2,
                "best streamed/block ratio {} (want < 0.85), best streamed wall {} \
                 vs analytical {analytical} (want 0.7x..2.0x)",
                last.0,
                last.1
            );
        }
    }
}
