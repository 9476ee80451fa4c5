//! The traced run: engine steps timed and classified from outside.
//!
//! Nothing here reaches inside the program. A step is driven through the
//! public `Engine::step`, timed with the host clock, and classified by
//! which public `Trace` counters it moved:
//!
//! * base class — `deliver` (deliveries moved), `collide` (MAC collisions
//!   moved), `timer` (timers fired moved), or `other` (none moved: stale
//!   timers, dead targets, channel grants, resends);
//! * send flags — `bcast`, `ucast`, `defer` from the deltas of
//!   `broadcasts_sent`, `unicasts_sent` and `mac_defers`.
//!
//! A step of class `other` with no send flag is a no-op: it moved no
//! counter at all.
//!
//! Spans are kept in memory and written when the run ends. A span is one
//! phase of a workload (`configure`, `heal`, `chaos`) or one oracle poll
//! inside it; the steps a span covers are aggregated into its class table
//! rather than stored one by one (the contended workload runs tens of
//! millions of steps).
//!
//! The mirrors of `Network::run_to_fixpoint_with` and
//! `Network::run_chaos_opts` below replace only `Engine::run_until` with a
//! stepped loop; they call the same public functions in the same order,
//! so a traced run processes exactly the events an untraced run does. The
//! work fingerprint of both is compared to prove it.

use std::collections::BTreeMap;
use std::time::Instant;

use gs3_core::chaos::PlannedFault;
use gs3_core::harness::{Network, RunOutcome};
use gs3_core::invariants::{check_all_with, SnapshotIndex, Strictness};
use gs3_core::{ChaosOptions, FaultPlan, Mode};
use gs3_sim::{SimDuration, SimTime};

/// Base classes of a step, by the first counter it moved.
const BASES: [&str; 4] = ["deliver", "collide", "timer", "other"];
pub const DELIVER: usize = 0;
pub const COLLIDE: usize = 1;
pub const TIMER: usize = 2;
pub const OTHER: usize = 3;
/// Send flags, OR-ed into the class index below the base.
pub const BCAST: usize = 1;
pub const UCAST: usize = 2;
pub const DEFER: usize = 4;
/// Number of step classes: base × send-flag combinations.
pub const CLASSES: usize = 4 * 8;

pub fn class_index(base: usize, flags: usize) -> usize {
    base * 8 + flags
}

/// The base class of a class index.
pub fn base_of(class: usize) -> usize {
    class / 8
}

/// Whether a class index carries a send flag.
pub fn has_flag(class: usize, flag: usize) -> bool {
    (class % 8) & flag != 0
}

/// Name of a step class, e.g. `deliver+bcast` or `other`.
fn class_name(class: usize) -> String {
    let mut s = BASES[base_of(class)].to_string();
    for (bit, name) in [(BCAST, "bcast"), (UCAST, "ucast"), (DEFER, "defer")] {
        if has_flag(class, bit) {
            s.push('+');
            s.push_str(name);
        }
    }
    s
}

/// Nanosecond histogram: exact 1 ns buckets below `LINEAR`, then 64
/// log-linear buckets per octave. Percentiles interpolate inside the
/// bucket that holds the rank.
#[derive(Clone)]
pub struct NsHist {
    buckets: Vec<u64>,
    count: u64,
}

const LINEAR: u64 = 4096;
const LINEAR_BITS: u32 = 12;
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;
const OCTAVES: u32 = 28;

impl Default for NsHist {
    fn default() -> Self {
        NsHist {
            buckets: vec![0; (LINEAR + SUB * u64::from(OCTAVES)) as usize],
            count: 0,
        }
    }
}

impl NsHist {
    fn bucket(ns: u64) -> usize {
        if ns < LINEAR {
            return ns as usize;
        }
        let octave = (63 - ns.leading_zeros()).min(LINEAR_BITS + OCTAVES - 1);
        let sub = (ns >> (octave - SUB_BITS)) & (SUB - 1);
        (LINEAR + u64::from(octave - LINEAR_BITS) * SUB + sub) as usize
    }

    /// `[low, high)` of a bucket.
    fn bounds(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < LINEAR {
            return (b as f64, b as f64 + 1.0);
        }
        let octave = (b - LINEAR) / SUB + u64::from(LINEAR_BITS);
        let width = 1u64 << (octave - u64::from(SUB_BITS));
        let low = (1u64 << octave) + ((b - LINEAR) % SUB) * width;
        (low as f64, (low + width) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &NsHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q`-quantile (0..1), interpolated within its bucket; 0 when
    /// the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut seen = 0.0;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = seen + n as f64;
            if next >= rank {
                let (low, high) = Self::bounds(b);
                return low + (high - low) * ((rank - seen) / n as f64).clamp(0.0, 1.0);
            }
            seen = next;
        }
        Self::bounds(self.buckets.len() - 1).1
    }
}

/// Per-class step statistics.
#[derive(Clone, Default)]
pub struct ClassStats {
    pub steps: u64,
    pub ns: u64,
    /// Deliveries scheduled by the steps of this class (broadcast fan-out
    /// plus unicast attempts that reached the queue).
    pub scheduled: u64,
    /// Broadcasts, unicasts and carrier-sense defers the steps of this
    /// class caused.
    pub broadcasts: u64,
    pub unicasts: u64,
    pub defers: u64,
}

impl ClassStats {
    pub fn add(&mut self, other: &ClassStats) {
        self.steps += other.steps;
        self.ns += other.ns;
        self.scheduled += other.scheduled;
        self.broadcasts += other.broadcasts;
        self.unicasts += other.unicasts;
        self.defers += other.defers;
    }
}

/// One span: a phase, or one oracle poll inside a phase.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    classes: BTreeMap<usize, ClassStats>,
}

/// The counters a step is classified by.
#[derive(Clone, Copy)]
struct Counters {
    deliveries: u64,
    collisions: u64,
    timers: u64,
    broadcasts: u64,
    unicasts: u64,
    defers: u64,
    scheduled: u64,
}

impl Counters {
    fn read(net: &Network) -> Self {
        let t = net.engine().trace();
        Counters {
            deliveries: t.deliveries(),
            collisions: t.mac_collisions(),
            timers: t.timers_fired(),
            broadcasts: t.broadcasts_sent(),
            unicasts: t.unicasts_sent(),
            defers: t.mac_defers(),
            scheduled: t.scheduled_deliveries(),
        }
    }
}

/// What a chaos run certified, whichever way it was driven.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSummary {
    pub healed: bool,
    pub max_heal_latency: Option<SimDuration>,
}

/// Strictness `Network::check_invariants_incremental` uses for a network.
/// The chaos oracle of `run_chaos_opts` always checks `Dynamic`.
fn strictness(net: &Network) -> Strictness {
    match net.config().mode {
        Mode::Static => Strictness::Static,
        _ => Strictness::Dynamic,
    }
}

/// The step tracer and its in-memory spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Index of the innermost open span; steps are charged to it.
    open: Option<usize>,
    pub classes: Vec<ClassStats>,
    pub hists: Vec<NsHist>,
    /// Fixpoint-detector polls and `structural_signature` call times.
    pub signature_polls: u64,
    pub signature_ns: u64,
    /// Invariant-oracle polls, with their snapshot and check times.
    pub invariant_polls: u64,
    pub snapshot_ns: u64,
    pub check_ns: u64,
    pub max_violations: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
            classes: vec![ClassStats::default(); CLASSES],
            hists: vec![NsHist::default(); CLASSES],
            signature_polls: 0,
            signature_ns: 0,
            invariant_polls: 0,
            snapshot_ns: 0,
            check_ns: 0,
            max_violations: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            parent: self.open,
            start_ns: self.now_ns(),
            end_ns: 0,
            classes: BTreeMap::new(),
        };
        self.spans.push(span);
        self.open = Some(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.expect("exit without an open span");
        self.spans[i].end_ns = self.now_ns();
        self.open = self.spans[i].parent;
    }

    /// Drop-in for `Engine::run_until`: steps every event due by
    /// `deadline`, timing and classifying each, then lets `run_until`
    /// advance the clock (with nothing left to process).
    pub fn run_until(&mut self, net: &mut Network, deadline: SimTime) {
        while let Some(t) = net.engine().next_event_time() {
            if t > deadline {
                break;
            }
            let before = Counters::read(net);
            let t0 = Instant::now();
            net.engine_mut().step();
            let ns = t0.elapsed().as_nanos() as u64;
            let after = Counters::read(net);
            self.record_step(&before, &after, ns);
        }
        net.engine_mut().run_until(deadline);
    }

    fn record_step(&mut self, before: &Counters, after: &Counters, ns: u64) {
        let base = if after.deliveries > before.deliveries {
            DELIVER
        } else if after.collisions > before.collisions {
            COLLIDE
        } else if after.timers > before.timers {
            TIMER
        } else {
            OTHER
        };
        let mut flags = 0;
        if after.broadcasts > before.broadcasts {
            flags |= BCAST;
        }
        if after.unicasts > before.unicasts {
            flags |= UCAST;
        }
        if after.defers > before.defers {
            flags |= DEFER;
        }
        let class = class_index(base, flags);
        let step = ClassStats {
            steps: 1,
            ns,
            scheduled: after.scheduled - before.scheduled,
            broadcasts: after.broadcasts - before.broadcasts,
            unicasts: after.unicasts - before.unicasts,
            defers: after.defers - before.defers,
        };
        self.classes[class].add(&step);
        let span = self.open.expect("steps run inside a span");
        self.spans[span]
            .classes
            .entry(class)
            .or_default()
            .add(&step);
        self.hists[class].record(ns);
    }

    /// `Network::structural_signature`, timed.
    fn signature(&mut self, net: &Network) -> u64 {
        let t0 = Instant::now();
        let sig = net.structural_signature();
        self.signature_ns += t0.elapsed().as_nanos() as u64;
        self.signature_polls += 1;
        sig
    }

    /// Mirror of `Network::run_to_fixpoint_with`, with every step traced.
    pub fn run_to_fixpoint_with(
        &mut self,
        net: &mut Network,
        poll: SimDuration,
        stable_polls: u32,
        deadline: SimTime,
    ) -> RunOutcome {
        let mut last_sig = self.signature(net);
        let mut stable = 0u32;
        let mut polls = 0u32;
        while net.now() < deadline {
            let target = net.now() + poll;
            self.run_until(net, target);
            polls += 1;
            let sig = self.signature(net);
            if sig == last_sig {
                stable += 1;
                if stable >= stable_polls {
                    return RunOutcome::Fixpoint {
                        at: net.now(),
                        polls,
                    };
                }
            } else {
                stable = 0;
                last_sig = sig;
            }
        }
        RunOutcome::TimedOut { at: deadline }
    }

    /// The invariant suite over a snapshot, timed in its two parts: the
    /// snapshot refill and the index update plus check. `idx` carries the
    /// incrementally maintained index between polls.
    fn check_invariants(
        &mut self,
        net: &Network,
        strictness: Strictness,
        snap: &mut gs3_core::Snapshot,
        idx: &mut Option<SnapshotIndex>,
    ) -> usize {
        let t0 = Instant::now();
        net.snapshot_into(snap);
        let t1 = Instant::now();
        let idx = match idx {
            Some(idx) => {
                idx.update(snap);
                idx
            }
            slot => slot.insert(SnapshotIndex::build(snap)),
        };
        let violations = check_all_with(snap, strictness, idx).len();
        let t2 = Instant::now();
        self.snapshot_ns += (t1 - t0).as_nanos() as u64;
        self.check_ns += (t2 - t1).as_nanos() as u64;
        self.invariant_polls += 1;
        self.max_violations = self.max_violations.max(violations);
        violations
    }

    /// Mirror of `Network::check_invariants_incremental` for a one-off
    /// check (fresh index), timed.
    pub fn check_invariants_once(&mut self, net: &Network) -> usize {
        let mut snap = net.snapshot();
        self.check_invariants(net, strictness(net), &mut snap, &mut None)
    }

    /// Mirror of `Network::run_chaos` (standard pacing, standard oracle),
    /// with every step traced and every oracle poll a span of its own.
    pub fn run_chaos(&mut self, net: &mut Network, plan: &FaultPlan) -> ChaosSummary {
        let opts = ChaosOptions::for_config(net.config());
        let start = net.now();
        let mut events: Vec<&PlannedFault> = plan.events().iter().collect();
        events.sort_by_key(|e| e.after);
        let deadline = start + plan.span() + opts.settle;

        let mut jams = BTreeMap::new();
        let mut injected: Vec<SimTime> = Vec::new();
        let mut latencies: Vec<Option<SimDuration>> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        let mut next_event = 0usize;
        let mut next_poll = start + opts.poll;
        let mut final_violations;
        let mut snap = net.snapshot();
        let mut idx: Option<SnapshotIndex> = None;

        loop {
            let event_at = events.get(next_event).map(|e| start + e.after);
            let target = match event_at {
                Some(t) if t <= next_poll => t,
                _ => next_poll.min(deadline),
            };
            self.run_until(net, target);
            if event_at == Some(target) {
                while let Some(e) = events.get(next_event) {
                    if start + e.after != target {
                        break;
                    }
                    let outcome = net.apply_fault(&e.kind, &mut jams);
                    pending.push(injected.len());
                    injected.push(outcome.injected_at);
                    latencies.push(None);
                    next_event += 1;
                }
                next_poll = target + opts.poll;
                continue;
            }
            self.enter("chaos_poll");
            let violations = self.check_invariants(net, Strictness::Dynamic, &mut snap, &mut idx);
            self.exit();
            final_violations = violations;
            if violations == 0 {
                for &i in &pending {
                    latencies[i] = Some(target.since(injected[i]));
                }
                pending.clear();
                net.engine_mut().close_episodes();
            }
            if target >= deadline || (next_event >= events.len() && pending.is_empty()) {
                break;
            }
            next_poll = target + opts.poll;
        }

        ChaosSummary {
            healed: final_violations == 0 && latencies.iter().all(Option::is_some),
            max_heal_latency: latencies.iter().flatten().max().copied(),
        }
    }

    /// All spans as JSON lines: name, parent index, start and end (ns
    /// since the tracer started), and per step class the steps, their
    /// summed time and the deliveries they scheduled.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"classes\":{{",
                s.name, s.start_ns, s.end_ns
            ));
            for (j, (class, c)) in s.classes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{{\"steps\":{},\"ns\":{},\"scheduled\":{}}}",
                    class_name(*class),
                    c.steps,
                    c.ns,
                    c.scheduled
                ));
            }
            out.push_str("}}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_contain_their_values() {
        let mut last = 0;
        for ns in (0..LINEAR * 8).chain([1 << 20, (1 << 30) + 12345, u64::from(u32::MAX)]) {
            let b = NsHist::bucket(ns);
            assert!(b >= last);
            last = b;
            let (low, high) = NsHist::bounds(b);
            assert!(
                low <= ns as f64 && (ns as f64) < high,
                "{ns} outside [{low},{high})"
            );
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = NsHist::default();
        for ns in 100..200 {
            h.record(ns);
        }
        assert!((h.quantile(0.5) - 150.0).abs() < 1.0);
        assert!(h.quantile(0.99) > 198.0 && h.quantile(0.99) <= 200.0);
        assert_eq!(NsHist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn class_names_spell_base_and_flags() {
        assert_eq!(
            class_name(class_index(DELIVER, BCAST | UCAST)),
            "deliver+bcast+ucast"
        );
        assert_eq!(class_name(class_index(OTHER, 0)), "other");
        assert_eq!(class_name(class_index(TIMER, DEFER)), "timer+defer");
    }
}
