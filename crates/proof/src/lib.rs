//! Proof-carrying repair evidence.
//!
//! Every repair op (a helper sending a block, a hop folding a partial
//! sum) can emit a [`RepairProof`]: the hashes of its inputs, the
//! symbolic GF coefficient vector it claims to have applied, the
//! algorithm/kernel tier that ran, and the chunking geometry — all bound
//! to the hash of its output with a *keyed* 128-bit hash ([`ProofHasher`],
//! SipHash-2-4 with 128-bit output). `rpr_faults::checksum64` stays as the
//! fast per-chunk transport checksum; the keyed proof hash is what resists an
//! adversarial helper that fabricates checksum-consistent garbage.
//!
//! Proofs accumulate in a [`ProofLedger`] keyed off the repair seed
//! ([`ProofKey::from_seed`]), serialized as JSON lines, and verifiable
//! *offline* by anyone holding the seed: [`ProofLedger::audit`] recomputes
//! every binding, checks wire consistency (each consumer's input hash
//! must equal its producer's output hash), and localizes the **first
//! dishonest hop** — the earliest op whose output hash disagrees with its
//! expected hash while all of its op-inputs match their producers'
//! *expected* hashes (downstream ops that merely folded a lie are
//! tainted, not dishonest). That rule is [`convicts`], the one the
//! supervisor also applies online when it accuses a helper.
//!
//! The trust model is symmetric-key: the supervisor and the auditor share
//! the repair seed, from which the ledger key derives deterministically.
//! A helper never holds the key, so it cannot forge a binding for lied
//! bytes. See `docs/ROBUSTNESS.md` for the full proof-plane story and
//! [`ProofMode`] for how much of it is enforced at repair time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rpr_faults::SplitMix64;

// ---------------------------------------------------------------------------
// Keyed hashing
// ---------------------------------------------------------------------------

/// The 128-bit key of a proof ledger, derived deterministically from the
/// repair seed. Helpers never see it; the supervisor and the offline
/// auditor both re-derive it from the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofKey {
    k0: u64,
    k1: u64,
}

impl ProofKey {
    /// Derive the ledger key for a repair seed. Pure function of the
    /// seed (two draws of the same [`SplitMix64`] stream the rest of the
    /// robustness layer uses), so same seed ⇒ same key ⇒ byte-identical
    /// ledgers across runs.
    pub fn from_seed(seed: u64) -> ProofKey {
        let mut mix = SplitMix64::new(seed ^ 0x7072_6f6f_666b_6579); // "proofkey"
        ProofKey {
            k0: mix.next_u64(),
            k1: mix.next_u64(),
        }
    }
}

/// Streaming SipHash-2-4 with 128-bit output.
///
/// Hand-rolled (the build has no registry access) from the reference
/// description in Aumasson & Bernstein, *SipHash: a fast short-input
/// PRF*. Streaming so the executor can fold chunk after chunk without
/// materializing the whole block — cut-through repair stays
/// allocation-free.
#[derive(Debug, Clone)]
pub struct ProofHasher {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    buf: [u8; 8],
    buf_len: usize,
    len: u64,
}

impl ProofHasher {
    /// A hasher for the given ledger key.
    pub fn new(key: ProofKey) -> ProofHasher {
        let mut h = ProofHasher {
            v0: key.k0 ^ 0x736f_6d65_7073_6575,
            v1: key.k1 ^ 0x646f_7261_6e64_6f6d,
            v2: key.k0 ^ 0x6c79_6765_6e65_7261,
            v3: key.k1 ^ 0x7465_6462_7974_6573,
            buf: [0; 8],
            buf_len: 0,
            len: 0,
        };
        h.v1 ^= 0xee; // 128-bit output variant
        h
    }

    #[inline]
    fn rounds(&mut self, n: usize) {
        for _ in 0..n {
            self.v0 = self.v0.wrapping_add(self.v1);
            self.v1 = self.v1.rotate_left(13);
            self.v1 ^= self.v0;
            self.v0 = self.v0.rotate_left(32);
            self.v2 = self.v2.wrapping_add(self.v3);
            self.v3 = self.v3.rotate_left(16);
            self.v3 ^= self.v2;
            self.v0 = self.v0.wrapping_add(self.v3);
            self.v3 = self.v3.rotate_left(21);
            self.v3 ^= self.v0;
            self.v2 = self.v2.wrapping_add(self.v1);
            self.v1 = self.v1.rotate_left(17);
            self.v1 ^= self.v2;
            self.v2 = self.v2.rotate_left(32);
        }
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.rounds(2);
        self.v0 ^= m;
    }

    /// Absorb `data`. Chunks may be fed in any split; only the
    /// concatenation matters.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(8 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 8 {
                return;
            }
            let m = u64::from_le_bytes(self.buf);
            self.compress(m);
            self.buf_len = 0;
        }
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            let m = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            self.compress(m);
        }
        let tail = words.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Absorb a `u64` as 8 little-endian bytes (domain separation for
    /// structured fields mixed into a proof binding).
    pub fn update_u64(&mut self, x: u64) {
        self.update(&x.to_le_bytes());
    }

    /// Finalize into the 128-bit digest.
    pub fn finish(mut self) -> u128 {
        let mut last = [0u8; 8];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        last[7] = (self.len & 0xff) as u8;
        let m = u64::from_le_bytes(last);
        self.compress(m);
        self.v2 ^= 0xee;
        self.rounds(4);
        let lo = self.v0 ^ self.v1 ^ self.v2 ^ self.v3;
        self.v1 ^= 0xdd;
        self.rounds(4);
        let hi = self.v0 ^ self.v1 ^ self.v2 ^ self.v3;
        (lo as u128) | ((hi as u128) << 64)
    }
}

/// One-shot keyed hash of a byte slice.
pub fn hash_bytes(key: ProofKey, data: &[u8]) -> u128 {
    let mut h = ProofHasher::new(key);
    h.update(data);
    h.finish()
}

/// The symbolic hash of ground-truth block `block` — what the simulator
/// backend uses in place of real block bytes.
pub fn symbolic_block_hash(key: ProofKey, block: usize) -> u128 {
    let mut h = ProofHasher::new(key);
    h.update(b"block");
    h.update_u64(block as u64);
    h.finish()
}

/// The symbolic hash of an op output carrying coefficient vector
/// `coeffs`, tainted by the lying ops in `taint` (sorted `(gen, op)`
/// pairs; empty = honest). The simulator has no bytes, so "wrong bytes"
/// is modeled as a non-empty taint set: the honest expected hash is
/// `symbolic_output_hash(key, coeffs, &[])` and any taint perturbs it.
pub fn symbolic_output_hash(key: ProofKey, coeffs: &[u8], taint: &[(usize, usize)]) -> u128 {
    let mut h = ProofHasher::new(key);
    h.update(b"sym");
    h.update_u64(coeffs.len() as u64);
    h.update(coeffs);
    h.update_u64(taint.len() as u64);
    for &(g, o) in taint {
        h.update_u64(g as u64);
        h.update_u64(o as u64);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Proof modes
// ---------------------------------------------------------------------------

/// How much of the proof plane a repair enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProofMode {
    /// Proofs are emitted, verified, and *enforced*: a proof rejection
    /// fails the generation, accuses the dishonest helper (quarantine on
    /// evidence), purges its banked partials, and replans without it.
    Mandatory,
    /// Proofs are emitted and verified; rejections are recorded as trace
    /// events but never alter control flow.
    Advisory,
    /// No proofs: bit-identical to the pre-proof-plane behavior.
    #[default]
    Off,
}

impl ProofMode {
    /// Stable lowercase name used in ledgers, summaries, and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            ProofMode::Mandatory => "mandatory",
            ProofMode::Advisory => "advisory",
            ProofMode::Off => "off",
        }
    }

    /// Parse a CLI / ledger-header mode name.
    ///
    /// # Errors
    /// Returns a descriptive message for unknown names.
    pub fn from_name(name: &str) -> Result<ProofMode, String> {
        match name {
            "mandatory" => Ok(ProofMode::Mandatory),
            "advisory" => Ok(ProofMode::Advisory),
            "off" => Ok(ProofMode::Off),
            other => Err(format!(
                "unknown proof mode '{other}' (expected mandatory, advisory, or off)"
            )),
        }
    }

    /// True when proofs are computed at all (Mandatory or Advisory).
    pub fn active(&self) -> bool {
        !matches!(self, ProofMode::Off)
    }
}

// ---------------------------------------------------------------------------
// Proofs and ledger entries
// ---------------------------------------------------------------------------

/// Where one proof input came from: a stripe block read from disk, the
/// output of an earlier op in the same generation's plan, or a partial
/// result banked into the reuse pool by an earlier generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofSource {
    /// Stripe block index (the op read it locally; there is no upstream
    /// producer to blame, so a wrong output here is dishonest at *this*
    /// op).
    Block(usize),
    /// Plan op index within the same generation whose output this op
    /// consumed.
    Op(usize),
    /// Pool provenance: the op re-served a partial that op `op` of
    /// generation `gen` originally produced. Audits follow this edge
    /// across generations, so taint on a re-served partial localizes to
    /// the original liar, not the node that banked and replayed it.
    Pooled {
        /// Generation whose plan produced the banked partial.
        gen: usize,
        /// Op index within that generation.
        op: usize,
    },
}

impl ProofSource {
    fn encode(&self) -> String {
        match self {
            ProofSource::Block(b) => format!("b{b}"),
            ProofSource::Op(o) => format!("o{o}"),
            ProofSource::Pooled { gen, op } => format!("p{gen}.{op}"),
        }
    }

    fn decode(s: &str) -> Result<ProofSource, String> {
        let (tag, idx) = s.split_at(1.min(s.len()));
        if tag == "p" {
            let (gen, op) = idx
                .split_once('.')
                .ok_or_else(|| format!("bad proof source '{s}'"))?;
            return Ok(ProofSource::Pooled {
                gen: gen.parse().map_err(|_| format!("bad proof source '{s}'"))?,
                op: op.parse().map_err(|_| format!("bad proof source '{s}'"))?,
            });
        }
        let idx: usize = idx.parse().map_err(|_| format!("bad proof source '{s}'"))?;
        match tag {
            "b" => Ok(ProofSource::Block(idx)),
            "o" => Ok(ProofSource::Op(idx)),
            _ => Err(format!("bad proof source '{s}'")),
        }
    }
}

/// The evidence one repair op emits: everything needed to re-check its
/// work without trusting the process that did it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairProof {
    /// Plan op index within its generation.
    pub op: usize,
    /// Node that executed the op (the helper under suspicion).
    pub node: usize,
    /// Symbolic GF coefficient vector over stripe blocks that the op
    /// claims its output equals (the pool key of the partial-result
    /// bank).
    pub coeffs: Vec<u8>,
    /// Hashes of every input the op consumed, in consumption order.
    pub inputs: Vec<(ProofSource, u128)>,
    /// Keyed hash of the bytes the op actually produced (simulator:
    /// taint-set symbolic hash).
    pub output_hash: u128,
    /// Keyed hash of what the output *should* be, derived by the
    /// supervisor from ground truth (simulator: taint-free symbolic
    /// hash). Recorded as a witness so the offline auditor can localize
    /// dishonesty without re-deriving ground truth.
    pub expected_hash: u128,
    /// Algorithm / kernel-tier identifier that produced the output
    /// (e.g. `"sim"`, `"gf-scalar"`, `"gf-simd"`).
    pub algorithm: String,
    /// Number of cut-through chunks the output was produced in (1 =
    /// store-and-forward).
    pub chunks: usize,
    /// Bytes per chunk (block size when `chunks == 1`).
    pub chunk_bytes: u64,
}

impl RepairProof {
    /// True when the op's output matches its expected hash.
    pub fn honest_output(&self) -> bool {
        self.output_hash == self.expected_hash
    }
}

/// One sealed ledger line: a proof plus the supervision generation it
/// ran in and the keyed binding over every field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Supervision generation (replan index) the op ran in.
    pub gen: usize,
    /// The proof being sealed.
    pub proof: RepairProof,
    /// Keyed binding over `(gen, proof)`. A helper cannot forge it
    /// without the ledger key, and any post-hoc edit of a recorded field
    /// breaks it.
    pub binding: u128,
}

/// Compute the binding of a proof: the keyed hash over every field in a
/// fixed canonical order.
pub fn bind_proof(key: ProofKey, gen: usize, proof: &RepairProof) -> u128 {
    let mut h = ProofHasher::new(key);
    h.update(b"bind");
    h.update_u64(gen as u64);
    h.update_u64(proof.op as u64);
    h.update_u64(proof.node as u64);
    h.update_u64(proof.coeffs.len() as u64);
    h.update(&proof.coeffs);
    h.update_u64(proof.inputs.len() as u64);
    for (src, hash) in &proof.inputs {
        match src {
            ProofSource::Block(b) => {
                h.update_u64(0);
                h.update_u64(*b as u64);
            }
            ProofSource::Op(o) => {
                h.update_u64(1);
                h.update_u64(*o as u64);
            }
            ProofSource::Pooled { gen, op } => {
                h.update_u64(2);
                h.update_u64(*gen as u64);
                h.update_u64(*op as u64);
            }
        }
        h.update(&hash.to_le_bytes());
    }
    h.update(&proof.output_hash.to_le_bytes());
    h.update(&proof.expected_hash.to_le_bytes());
    h.update_u64(proof.algorithm.len() as u64);
    h.update(proof.algorithm.as_bytes());
    h.update_u64(proof.chunks as u64);
    h.update_u64(proof.chunk_bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// The ledger
// ---------------------------------------------------------------------------

/// An append-only ledger of sealed repair proofs for one repair, keyed
/// off its seed. Serializes to JSON lines ([`ProofLedger::to_json_lines`])
/// and back ([`ProofLedger::parse`]); [`ProofLedger::audit`] verifies it
/// offline.
#[derive(Debug, Clone, PartialEq)]
pub struct ProofLedger {
    /// The repair seed the ledger key derives from.
    pub seed: u64,
    /// The mode the repair ran under.
    pub mode: ProofMode,
    /// Sealed entries in emission order (generation-major, op order
    /// within a generation).
    pub entries: Vec<LedgerEntry>,
}

impl ProofLedger {
    /// An empty ledger for a repair seed running under `mode`.
    pub fn new(seed: u64, mode: ProofMode) -> ProofLedger {
        ProofLedger {
            seed,
            mode,
            entries: Vec::new(),
        }
    }

    /// The ledger key (re-derived from the seed on every call; cheap).
    pub fn key(&self) -> ProofKey {
        ProofKey::from_seed(self.seed)
    }

    /// Seal `proof` under the ledger key and append it.
    pub fn push(&mut self, gen: usize, proof: RepairProof) {
        let binding = bind_proof(self.key(), gen, &proof);
        self.entries.push(LedgerEntry {
            gen,
            proof,
            binding,
        });
    }

    /// Serialize: one header line, then one JSON object per entry, with
    /// a stable field order so same-seed ledgers compare with `cmp`.
    pub fn to_json_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"ledger\":\"rpr-proof\",\"version\":1,\"seed\":{},\"mode\":\"{}\"}}",
            self.seed,
            self.mode.name()
        );
        for e in &self.entries {
            let p = &e.proof;
            let mut coeffs = String::with_capacity(p.coeffs.len() * 2);
            for b in &p.coeffs {
                let _ = write!(coeffs, "{b:02x}");
            }
            let inputs: Vec<String> = p
                .inputs
                .iter()
                .map(|(s, h)| format!("\"{}:{:032x}\"", s.encode(), h))
                .collect();
            let _ = writeln!(
                out,
                "{{\"gen\":{},\"op\":{},\"node\":{},\"alg\":\"{}\",\"chunks\":{},\
                 \"chunk_bytes\":{},\"coeffs\":\"{}\",\"inputs\":[{}],\
                 \"out\":\"{:032x}\",\"exp\":\"{:032x}\",\"bind\":\"{:032x}\"}}",
                e.gen,
                p.op,
                p.node,
                p.algorithm,
                p.chunks,
                p.chunk_bytes,
                coeffs,
                inputs.join(","),
                p.output_hash,
                p.expected_hash,
                e.binding,
            );
        }
        out
    }

    /// Parse a ledger back from its JSON-lines form.
    ///
    /// # Errors
    /// Returns a descriptive message on any malformed line.
    pub fn parse(text: &str) -> Result<ProofLedger, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty ledger")?;
        if !header.contains("\"ledger\":\"rpr-proof\"") {
            return Err("not a rpr-proof ledger (bad header)".into());
        }
        let seed = field_u64(header, "seed")?;
        let mode = ProofMode::from_name(&field_str(header, "mode")?)?;
        let mut ledger = ProofLedger::new(seed, mode);
        for (i, line) in lines.enumerate() {
            let err = |m: &str| format!("ledger entry {}: {m}", i + 1);
            let coeffs_hex = field_str(line, "coeffs").map_err(|e| err(&e))?;
            let coeffs = parse_hex_bytes(&coeffs_hex).map_err(|e| err(&e))?;
            let mut inputs = Vec::new();
            for item in field_str_array(line, "inputs").map_err(|e| err(&e))? {
                let (src, hash) = item
                    .split_once(':')
                    .ok_or_else(|| err("input missing ':'"))?;
                inputs.push((
                    ProofSource::decode(src).map_err(|e| err(&e))?,
                    parse_hex_u128(hash).map_err(|e| err(&e))?,
                ));
            }
            let proof = RepairProof {
                op: field_u64(line, "op").map_err(|e| err(&e))? as usize,
                node: field_u64(line, "node").map_err(|e| err(&e))? as usize,
                coeffs,
                inputs,
                output_hash: parse_hex_u128(&field_str(line, "out").map_err(|e| err(&e))?)
                    .map_err(|e| err(&e))?,
                expected_hash: parse_hex_u128(&field_str(line, "exp").map_err(|e| err(&e))?)
                    .map_err(|e| err(&e))?,
                algorithm: field_str(line, "alg").map_err(|e| err(&e))?,
                chunks: field_u64(line, "chunks").map_err(|e| err(&e))? as usize,
                chunk_bytes: field_u64(line, "chunk_bytes").map_err(|e| err(&e))?,
            };
            ledger.entries.push(LedgerEntry {
                gen: field_u64(line, "gen").map_err(|e| err(&e))? as usize,
                proof,
                binding: parse_hex_u128(&field_str(line, "bind").map_err(|e| err(&e))?)
                    .map_err(|e| err(&e))?,
            });
        }
        Ok(ledger)
    }

    /// Verify the whole ledger offline and localize dishonesty. Holding
    /// only this ledger (whose header carries the seed), the auditor
    /// re-derives the key, re-checks every binding, every wire hop, and
    /// every output-vs-expected witness, and convicts by [`convicts`] —
    /// the rule the supervisor applies online.
    pub fn audit(&self) -> AuditReport {
        let key = self.key();
        let mut report = AuditReport {
            entries: self.entries.len(),
            binding_failures: Vec::new(),
            wire_failures: Vec::new(),
            mismatches: Vec::new(),
            dishonest: Vec::new(),
        };
        for (i, e) in self.entries.iter().enumerate() {
            if bind_proof(key, e.gen, &e.proof) != e.binding {
                report.binding_failures.push(i);
            }
            if !e.proof.honest_output() {
                report.mismatches.push(i);
            }
            // Pool re-serves resolve across generations to the op that
            // originally banked the partial; plain op inputs resolve
            // within the entry's own generation. Block reads have no
            // upstream producer to check against.
            let producer = |src: ProofSource| {
                let (gen, op) = match src {
                    ProofSource::Block(_) => return None,
                    ProofSource::Op(o) => (e.gen, o),
                    ProofSource::Pooled { gen, op } => (gen, op),
                };
                self.entries[..i]
                    .iter()
                    .rev()
                    .find(|p| p.gen == gen && p.proof.op == op)
            };
            // Wire consistency: each op-input hash against its producer's
            // recorded output (a missing producer cannot be cross-checked).
            // An entry is listed once however many of its inputs disagree.
            if e.proof.inputs.iter().any(|&(src, h)| {
                !matches!(src, ProofSource::Block(_))
                    && producer(src).is_none_or(|p| p.proof.output_hash != h)
            }) {
                report.wire_failures.push(i);
            }
            if convicts(&e.proof, |src| producer(src).map(|p| p.proof.expected_hash)) {
                report.dishonest.push(i);
            }
        }
        report
    }
}

/// The one conviction rule, applied online by the supervisor's evidence
/// builder and offline by [`ProofLedger::audit`]: `proof`'s output
/// disagrees with its expected hash while every `Op` and `Pooled` input
/// equals its producer's expected hash (`producer_expected`; `None` when
/// no producer is known). A `Block` input has no upstream producer and
/// counts as honest. An op that merely folded a lie fails the input test:
/// tainted, not dishonest.
pub fn convicts(
    proof: &RepairProof,
    producer_expected: impl Fn(ProofSource) -> Option<u128>,
) -> bool {
    !proof.honest_output()
        && proof.inputs.iter().all(|&(src, h)| {
            matches!(src, ProofSource::Block(_)) || producer_expected(src) == Some(h)
        })
}

/// What [`ProofLedger::audit`] found. All index vectors point into
/// [`ProofLedger::entries`], in ledger order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Total entries audited.
    pub entries: usize,
    /// Entries whose keyed binding does not recompute (tampered or
    /// forged lines).
    pub binding_failures: Vec<usize>,
    /// Entries with an op-input hash that disagrees with (or lacks) its
    /// producer's recorded output hash.
    pub wire_failures: Vec<usize>,
    /// Entries whose output hash disagrees with the expected witness
    /// (dishonest *or* downstream-tainted).
    pub mismatches: Vec<usize>,
    /// Entries localized as dishonest: wrong output from honest inputs.
    pub dishonest: Vec<usize>,
}

impl AuditReport {
    /// True when every binding verifies, every wire hop is consistent,
    /// and no output disagrees with its witness.
    pub fn clean(&self) -> bool {
        self.binding_failures.is_empty()
            && self.wire_failures.is_empty()
            && self.mismatches.is_empty()
            && self.dishonest.is_empty()
    }

    /// Index (into the ledger's entries) of the first dishonest hop, if
    /// any.
    pub fn first_dishonest(&self) -> Option<usize> {
        self.dishonest.first().copied()
    }
}

// ---------------------------------------------------------------------------
// Hand-rolled JSON field extraction (the workspace avoids serde)
// ---------------------------------------------------------------------------

/// The value of `"key":<value>` must be a whole `u64`: it ends at the
/// next `,` or `}`, and anything but digits up to there is an error.
fn field_u64(line: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("missing field '{key}'"))?;
    let rest = &line[at + pat.len()..];
    let value = &rest[..rest.find([',', '}']).unwrap_or(rest.len())];
    let bad = || format!("bad number in field '{key}'");
    if !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    value.parse().map_err(|_| bad())
}

fn field_str(line: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\":\"");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("missing field '{key}'"))?;
    let rest = &line[at + pat.len()..];
    let end = rest
        .find('"')
        .ok_or_else(|| format!("unterminated field '{key}'"))?;
    Ok(rest[..end].to_string())
}

fn field_str_array(line: &str, key: &str) -> Result<Vec<String>, String> {
    let pat = format!("\"{key}\":[");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("missing field '{key}'"))?;
    let rest = &line[at + pat.len()..];
    let end = rest
        .find(']')
        .ok_or_else(|| format!("unterminated array '{key}'"))?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|item| {
            let item = item.trim();
            item.strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .map(str::to_string)
                .ok_or_else(|| format!("unquoted element in array '{key}'"))
        })
        .collect()
}

fn parse_hex_u128(s: &str) -> Result<u128, String> {
    u128::from_str_radix(s, 16).map_err(|_| format!("bad hex hash '{s}'"))
}

fn parse_hex_bytes(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| format!("bad hex '{s}'")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proof(
        op: usize,
        node: usize,
        inputs: Vec<(ProofSource, u128)>,
        out: u128,
        exp: u128,
    ) -> RepairProof {
        RepairProof {
            op,
            node,
            coeffs: vec![1, 0, 3],
            inputs,
            output_hash: out,
            expected_hash: exp,
            algorithm: "sim".into(),
            chunks: 4,
            chunk_bytes: 8,
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let key = ProofKey::from_seed(17);
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = hash_bytes(key, &data);
        for split in [1usize, 3, 7, 8, 64, 999] {
            let mut h = ProofHasher::new(key);
            for chunk in data.chunks(split) {
                h.update(chunk);
            }
            assert_eq!(h.finish(), whole, "split {split}");
        }
    }

    #[test]
    fn keys_and_inputs_separate_hashes() {
        let k17 = ProofKey::from_seed(17);
        let k18 = ProofKey::from_seed(18);
        assert_eq!(ProofKey::from_seed(17), k17, "key derivation is pure");
        assert_ne!(k17, k18);
        assert_ne!(hash_bytes(k17, b"abc"), hash_bytes(k18, b"abc"));
        assert_ne!(hash_bytes(k17, b"abc"), hash_bytes(k17, b"abd"));
        assert_ne!(hash_bytes(k17, b""), hash_bytes(k17, b"\0"));
        // Length is absorbed: two updates == one concatenated update,
        // but shifting a byte across a field boundary must not collide.
        assert_ne!(symbolic_block_hash(k17, 1), symbolic_block_hash(k17, 2));
        assert_ne!(
            symbolic_output_hash(k17, &[1, 2], &[]),
            symbolic_output_hash(k17, &[1, 2], &[(0, 3)])
        );
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in [ProofMode::Mandatory, ProofMode::Advisory, ProofMode::Off] {
            assert_eq!(ProofMode::from_name(mode.name()), Ok(mode));
        }
        assert!(ProofMode::from_name("loud").is_err());
        assert_eq!(ProofMode::default(), ProofMode::Off);
        assert!(ProofMode::Mandatory.active());
        assert!(!ProofMode::Off.active());
    }

    #[test]
    fn ledger_round_trips_through_json_lines() {
        let key = ProofKey::from_seed(99);
        let mut ledger = ProofLedger::new(99, ProofMode::Mandatory);
        let h0 = symbolic_block_hash(key, 2);
        ledger.push(0, proof(0, 5, vec![(ProofSource::Block(2), h0)], 10, 10));
        ledger.push(1, proof(3, 6, vec![(ProofSource::Op(0), 10)], 20, 21));
        let text = ledger.to_json_lines();
        let back = ProofLedger::parse(&text).expect("parse");
        assert_eq!(back, ledger);
        assert_eq!(back.to_json_lines(), text, "re-serialization is stable");
    }

    #[test]
    fn audit_accepts_honest_ledger_and_localizes_liar() {
        let key = ProofKey::from_seed(7);
        let b = symbolic_block_hash(key, 0);
        // op0 sends block 0 honestly, op1 folds it honestly.
        let mut honest = ProofLedger::new(7, ProofMode::Mandatory);
        honest.push(0, proof(0, 1, vec![(ProofSource::Block(0), b)], 11, 11));
        honest.push(0, proof(1, 2, vec![(ProofSource::Op(0), 11)], 22, 22));
        let report = honest.audit();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.first_dishonest(), None);

        // op0 lies (out 99 != exp 11); op1 faithfully folds the lie, so
        // its output is wrong too — but only op0 is dishonest.
        let mut lied = ProofLedger::new(7, ProofMode::Mandatory);
        lied.push(0, proof(0, 1, vec![(ProofSource::Block(0), b)], 99, 11));
        lied.push(0, proof(1, 2, vec![(ProofSource::Op(0), 99)], 33, 22));
        let report = lied.audit();
        assert!(!report.clean());
        assert!(report.wire_failures.is_empty(), "lie is wire-consistent");
        assert_eq!(report.mismatches, vec![0, 1]);
        assert_eq!(report.dishonest, vec![0], "taint is not dishonesty");
        assert_eq!(report.first_dishonest(), Some(0));
    }

    #[test]
    fn pooled_provenance_localizes_reserved_taint_to_the_origin() {
        let key = ProofKey::from_seed(3);
        let b = symbolic_block_hash(key, 0);
        // Generation 0: op 0 lies (out 99 != exp 11), its partial is
        // banked. Generation 1: a different node re-serves the banked
        // bytes from the pool — output still 99 against expected 11 —
        // with a provenance input naming generation 0's op 0.
        let mut ledger = ProofLedger::new(3, ProofMode::Advisory);
        ledger.push(0, proof(0, 1, vec![(ProofSource::Block(0), b)], 99, 11));
        ledger.push(
            1,
            proof(
                0,
                2,
                vec![(ProofSource::Pooled { gen: 0, op: 0 }, 99)],
                99,
                11,
            ),
        );
        let report = ledger.audit();
        assert!(report.binding_failures.is_empty());
        assert!(
            report.wire_failures.is_empty(),
            "the pooled edge resolves across generations: {report:?}"
        );
        assert_eq!(report.mismatches, vec![0, 1], "both outputs are wrong");
        assert_eq!(
            report.dishonest,
            vec![0],
            "the re-serving node inherited the taint; only the origin lied"
        );

        // A pooled edge naming a producer the ledger never recorded (or
        // whose output disagrees) is a wire failure at the re-serve.
        let mut dangling = ProofLedger::new(3, ProofMode::Advisory);
        dangling.push(
            0,
            proof(
                4,
                2,
                vec![(ProofSource::Pooled { gen: 7, op: 9 }, 99)],
                99,
                99,
            ),
        );
        assert_eq!(dangling.audit().wire_failures, vec![0]);

        // Pooled sources survive the JSON round trip and the binding
        // distinguishes them from plain op inputs.
        let text = ledger.to_json_lines();
        assert!(text.contains("p0.0"), "encoded provenance: {text}");
        let back = ProofLedger::parse(&text).expect("parse");
        assert_eq!(back, ledger);
        let gen_key = ledger.key();
        let as_op = proof(0, 2, vec![(ProofSource::Op(0), 99)], 99, 11);
        assert_ne!(
            bind_proof(gen_key, 1, &ledger.entries[1].proof),
            bind_proof(gen_key, 1, &as_op),
            "a pooled input binds differently from a same-generation op input"
        );
    }

    #[test]
    fn audit_detects_tampered_binding_and_broken_wire() {
        let key = ProofKey::from_seed(5);
        let b = symbolic_block_hash(key, 1);
        let mut ledger = ProofLedger::new(5, ProofMode::Advisory);
        ledger.push(0, proof(0, 1, vec![(ProofSource::Block(1), b)], 11, 11));
        ledger.push(0, proof(1, 2, vec![(ProofSource::Op(0), 12)], 22, 22));
        // Entry 1 claims an input hash its producer never output.
        let report = ledger.audit();
        assert_eq!(report.wire_failures, vec![1]);
        // Tamper with entry 0 after sealing: binding breaks.
        ledger.entries[0].proof.node = 9;
        let report = ledger.audit();
        assert_eq!(report.binding_failures, vec![0]);
    }

    #[test]
    fn an_entry_with_several_broken_wires_is_one_wire_failure() {
        let key = ProofKey::from_seed(5);
        let (b0, b1) = (symbolic_block_hash(key, 0), symbolic_block_hash(key, 1));
        let mut ledger = ProofLedger::new(5, ProofMode::Advisory);
        ledger.push(0, proof(0, 1, vec![(ProofSource::Block(0), b0)], 11, 11));
        ledger.push(0, proof(1, 2, vec![(ProofSource::Block(1), b1)], 12, 12));
        // The combine names a wrong hash for both of its producers.
        let inputs = vec![(ProofSource::Op(0), 98), (ProofSource::Op(1), 99)];
        ledger.push(0, proof(2, 3, inputs, 33, 33));
        assert_eq!(ledger.audit().wire_failures, vec![2]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ProofLedger::parse("").is_err());
        assert!(ProofLedger::parse("{\"not\":\"a ledger\"}").is_err());
        let mut ledger = ProofLedger::new(1, ProofMode::Off);
        ledger.push(0, proof(0, 1, Vec::new(), 1, 1));
        let text = ledger.to_json_lines();
        let broken = text.replace("\"op\":0", "\"op\":x");
        assert!(ProofLedger::parse(&broken).is_err());
    }

    #[test]
    fn parse_rejects_trailing_junk_after_a_number() {
        let mut ledger = ProofLedger::new(1, ProofMode::Off);
        ledger.push(0, proof(12, 1, Vec::new(), 1, 1));
        let text = ledger.to_json_lines();
        assert!(ProofLedger::parse(&text).is_ok());
        let hostile = text.replace("\"op\":12", "\"op\":12abc");
        assert_ne!(hostile, text);
        assert!(ProofLedger::parse(&hostile).is_err());
    }
}
