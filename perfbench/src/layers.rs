//! Per-layer metrics of the traced run, named by the repository module
//! whose work they measure. `README.md` lists, for each, the end-to-end
//! metric and workload it should move and the workload that bypasses it.

use std::collections::BTreeMap;

use crate::trace::{
    base_of, class_index, has_flag, ClassStats, NsHist, Tracer, BCAST, CLASSES, COLLIDE, DEFER,
    DELIVER, OTHER, TIMER, UCAST,
};
use crate::workloads::{Certified, Outcome};
use crate::{metric, Metric};

/// Handler module that sends each message kind (`Msg::kind`), for the
/// `sent.*` metrics.
fn module_of(kind: &str) -> &'static str {
    match kind {
        "bootup_probe" | "head_join_resp" | "associate_join_resp" => "join",
        "org" | "org_reply" | "head_org_reply" | "head_set" => "head_org",
        "head_intra_alive" | "head_intra_ack" | "associate_alive" | "associate_retreat"
        | "head_retreat" | "cell_abandoned" => "intra",
        "head_inter_alive" | "new_child_head" | "child_retire" | "parent_seek"
        | "parent_seek_ack" | "replacing_head" | "new_head_announce" => "inter",
        "sanity_check_req" | "sanity_check_valid" | "head_retreat_corrupted" => "sanity",
        "sensor_report" | "aggregate_report" | "data_batch" | "data_credit" => "workload",
        "reliable" | "delivery_ack" => "reliable",
        "proxy_assign" | "proxy_release" => "proxy",
        _ => "other",
    }
}

const MODULES: [&str; 9] = [
    "join", "head_org", "intra", "inter", "sanity", "workload", "reliable", "proxy", "other",
];

/// Summed statistics and merged histogram of the classes `pick` selects.
fn select(tracer: &Tracer, pick: impl Fn(usize) -> bool) -> (ClassStats, NsHist) {
    let mut sum = ClassStats::default();
    let mut hist = NsHist::default();
    for class in (0..CLASSES).filter(|&c| pick(c)) {
        sum.add(&tracer.classes[class]);
        hist.merge(&tracer.hists[class]);
    }
    (sum, hist)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn metrics(plain: &Outcome, traced: &Outcome, mc: &Certified, tracer: &Tracer) -> Vec<Metric> {
    let net = traced
        .net
        .as_ref()
        .expect("the traced run keeps its network");
    let t = net.engine().trace();
    let mut sent: BTreeMap<&str, u64> = BTreeMap::new();
    for (kind, &n) in t.sent_by_kind() {
        *sent.entry(module_of(kind)).or_default() += n;
    }

    let (all, all_hist) = select(tracer, |_| true);
    let total = all.ns as f64;
    let share = |c: &ClassStats| ratio(c.ns as f64, total);
    let (noop, noop_hist) = select(tracer, |c| c == class_index(OTHER, 0));
    let (bcast, bcast_hist) = select(tracer, |c| has_flag(c, BCAST));
    // Fan-out per broadcast: steps that broadcast and sent no unicast, so
    // every delivery they scheduled is a broadcast reception.
    let (fan, _) = select(tracer, |c| has_flag(c, BCAST) && !has_flag(c, UCAST));
    let (collide, _) = select(tracer, |c| base_of(c) == COLLIDE);
    let (defer, _) = select(tracer, |c| has_flag(c, DEFER));
    let (deliver, deliver_hist) = select(tracer, |c| base_of(c) == DELIVER);
    let (timer, timer_hist) = select(tracer, |c| base_of(c) == TIMER);
    let (ucast, ucast_hist) = select(tracer, |c| has_flag(c, UCAST));

    // The data plane's own counters over the whole run (zero where it is
    // off).
    let data = |name: &str| t.proto(name) as f64;
    let latency = net.sink_ledger().map(|l| &l.latency_us);
    let latency_ms = |p: f64| latency.map_or(0.0, |h| h.percentile(p) as f64 / 1000.0);
    let states: u64 = mc.reports.iter().map(|r| r.states_explored).sum();
    let deduped: u64 = mc.reports.iter().map(|r| r.states_deduped).sum();
    let polls = tracer.invariant_polls as f64;

    let mut m = vec![
        metric("engine.events", all.steps as f64, "count"),
        metric(
            "engine.events_per_s",
            ratio(all.steps as f64, total / 1e9),
            "1/s",
        ),
        metric("engine.step_ns_p50", all_hist.quantile(0.5), "ns"),
        metric("engine.step_ns_p99", all_hist.quantile(0.99), "ns"),
        metric(
            "engine.sim_s_per_wall_s",
            ratio(plain.sim_s, plain.wall_s),
            "sim_s/s",
        ),
        metric(
            "queue.peak_depth",
            net.engine().peak_queue_depth() as f64,
            "count",
        ),
        metric("queue.noop_steps", noop.steps as f64, "count"),
        metric("queue.noop_step_ns_p50", noop_hist.quantile(0.5), "ns"),
        metric("fanout.broadcasts", all.broadcasts as f64, "count"),
        metric("fanout.unicasts", all.unicasts as f64, "count"),
        metric(
            "fanout.receivers_per_broadcast",
            ratio(fan.scheduled as f64, fan.broadcasts as f64),
            "count",
        ),
        metric("fanout.bcast_step_ns_p50", bcast_hist.quantile(0.5), "ns"),
        metric("fanout.bcast_time_share", share(&bcast), "share"),
        metric(
            "fanout.ns_per_receiver",
            ratio(fan.ns as f64, fan.scheduled as f64),
            "ns",
        ),
        metric("medium.collisions", t.mac_collisions() as f64, "count"),
        metric("medium.defers", t.mac_defers() as f64, "count"),
        metric(
            "medium.backoff_exhausted",
            t.mac_backoff_exhausted() as f64,
            "count",
        ),
        metric(
            "medium.goodput_ratio",
            ratio(
                t.deliveries() as f64,
                (t.deliveries() + t.mac_collisions()) as f64,
            ),
            "ratio",
        ),
        metric("medium.collision_time_share", share(&collide), "share"),
        metric("medium.defer_time_share", share(&defer), "share"),
        metric(
            "handler.deliver_step_ns_p50",
            deliver_hist.quantile(0.5),
            "ns",
        ),
        metric("handler.deliver_time_share", share(&deliver), "share"),
        metric("handler.timer_step_ns_p50", timer_hist.quantile(0.5), "ns"),
        metric("handler.timer_time_share", share(&timer), "share"),
        metric("handler.ucast_step_ns_p50", ucast_hist.quantile(0.5), "ns"),
        metric("handler.ucast_time_share", share(&ucast), "share"),
    ];
    for module in MODULES {
        let n = sent.get(module).copied().unwrap_or(0);
        m.push(metric(&format!("sent.{module}"), n as f64, "count"));
    }
    m.extend([
        metric("harness.polls", tracer.signature_polls as f64, "count"),
        metric(
            "harness.signature_us",
            ratio(
                tracer.signature_ns as f64 / 1e3,
                tracer.signature_polls as f64,
            ),
            "us",
        ),
        metric("invariants.polls", polls, "count"),
        metric(
            "invariants.snapshot_ms",
            ratio(tracer.snapshot_ns as f64 / 1e6, polls),
            "ms",
        ),
        metric(
            "invariants.check_ms",
            ratio(tracer.check_ns as f64 / 1e6, polls),
            "ms",
        ),
        metric(
            "invariants.max_violations",
            tracer.max_violations as f64,
            "count",
        ),
        metric(
            "dataplane.reports_produced",
            data("data_reports_produced"),
            "count",
        ),
        metric(
            "dataplane.reports_delivered",
            data("data_reports_delivered"),
            "count",
        ),
        metric("dataplane.queue_drops", data("data_queue_drops"), "count"),
        metric(
            "dataplane.misrouted",
            data("data_reports_lost_misroute"),
            "count",
        ),
        metric(
            "dataplane.credit_recoveries",
            data("data_credit_recovered"),
            "count",
        ),
        metric("dataplane.latency_p50_ms", latency_ms(50.0), "sim_ms"),
        metric("dataplane.latency_p99_ms", latency_ms(99.0), "sim_ms"),
        metric("mc.states", states as f64, "count"),
        metric("mc.deduped", deduped as f64, "count"),
        metric("mc.states_per_s", ratio(states as f64, mc.wall_s), "1/s"),
        metric("mc.clone_us", mc.clone_ns / 1e3, "us"),
        metric("mc.fingerprint_us", mc.fingerprint_ns / 1e3, "us"),
        metric("outcome.configure_sim_s", traced.configure_sim_s, "sim_s"),
        metric("outcome.heal_sim_s", traced.heal_sim_s, "sim_s"),
        metric("outcome.delivery_ratio", traced.delivery_ratio, "ratio"),
        metric("outcome.tx_per_node_s", traced.tx_per_node_s, "1/sim_s"),
        metric("work.events", traced.work.events as f64, "count"),
        metric(
            "work.scheduled_deliveries",
            traced.work.scheduled_deliveries as f64,
            "count",
        ),
        // The low 52 bits, so the JSON number holds the digest exactly.
        metric(
            "work.digest",
            (traced.work.digest & ((1 << 52) - 1)) as f64,
            "count",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(traced.wall_s, plain.wall_s),
            "x",
        ),
    ]);
    m
}
