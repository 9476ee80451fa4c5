//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans PATH]
//! ```
//!
//! One process runs one workload, single-threaded, so its peak RSS is that
//! workload's alone. With `--trace 0` it sets the workload up from the
//! seed, repeats the measured phase while another repetition fits in
//! `--seconds`, checks every output, and prints the end-to-end metrics.
//! With `--trace 1` it runs the measured phase once untraced (for the
//! overhead baseline and the work fingerprint) and once with every engine
//! step timed and classified, model-checks the pinned fields, and prints
//! the per-layer metrics. The last line of
//! standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! All timing is outside-in: the benchmark times calls into the public
//! API and reads public counters. See `README.md` beside this crate for
//! why each workload exists and which layer each metric belongs to.

mod layers;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;
use workloads::{certify, run, setup, Check, CheckKind, Outcome, Size, Workload, FULL, SMOKE};

/// A reported metric. Metrics in the units `count`, `ratio`, `sim_s`,
/// `sim_ms` and `1/sim_s` are deterministic for a seed: two runs of the
/// same code print them identically. Host times and time shares (`share`)
/// are not.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Set-ups are timed after the first repetition of the measured phase, at
/// least this many and for at least `SETUP_SECONDS`, after one untimed
/// warm-up set-up.
const SETUP_SAMPLES: usize = 31;
const SETUP_SECONDS: f64 = 1.5;

/// Time of one `reference_kernel` call at the reference speed, s: its
/// median in a fresh process on the host named in `README.md` at that
/// host's fast level. `setup_s` is the set-up time scaled to this speed.
const REFERENCE_KERNEL_S: f64 = 7.0e-5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut spans) = (false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                });
            }
            "--smoke" => smoke = true,
            "--spans" => spans = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        spans,
    })
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in status");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kb / 1024.0
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A fixed allocation-bound kernel that does not touch the program: 2000
/// small vectors allocated, written and freed. On a shared host the speed
/// of allocation-heavy code swings by up to 1.8x for seconds to minutes at
/// a time, often longer than a run; a set-up (sub-millisecond to a few
/// milliseconds of allocation) swings with it, and so does this kernel.
fn reference_kernel() -> f64 {
    let t0 = Instant::now();
    let mut vs: Vec<Vec<u64>> = (0..2000u64).map(|i| vec![i; 24]).collect();
    for v in &mut vs {
        v[3] += 1;
    }
    std::hint::black_box(&vs);
    drop(vs);
    t0.elapsed().as_secs_f64()
}

/// Times set-ups, each between two calls of `reference_kernel`.
/// Returns the median raw set-up time, the median kernel time, and the
/// median set-up time scaled to the kernel's reference speed: each
/// set-up divided by the mean of the kernel calls around it, times
/// `REFERENCE_KERNEL_S`. The networks are dropped outside the timing.
fn time_setups(w: Workload, size: &Size, seed: u64) -> (f64, f64, f64, usize) {
    drop(setup(w, size, seed));
    let mut before = reference_kernel();
    let (mut raw, mut kernel, mut scaled) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while raw.len() < SETUP_SAMPLES || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t0 = Instant::now();
        let net = setup(w, size, seed);
        let elapsed = t0.elapsed().as_secs_f64();
        drop(net);
        let after = reference_kernel();
        raw.push(elapsed);
        kernel.push(after);
        scaled.push(elapsed * REFERENCE_KERNEL_S / ((before + after) / 2.0));
        before = after;
    }
    (median(&raw), median(&kernel), median(&scaled), raw.len())
}

/// Tallies checks: `(attempted, failed, correct)`.
fn tally(lists: &[&Vec<Check>]) -> (u64, u64, bool) {
    let checks = lists.iter().flat_map(|l| l.iter());
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for c in checks {
        attempted += 1;
        if !c.passed {
            failed += 1;
            correct &= c.kind == CheckKind::Completion;
        }
    }
    (attempted, failed, correct)
}

fn print_outcome(o: &Outcome) {
    for c in &o.checks {
        println!(
            "check {:<4} {}",
            if c.passed { "ok" } else { "FAIL" },
            c.name
        );
    }
    println!(
        "work events={} scheduled_deliveries={} digest={:#018x}",
        o.work.events, o.work.scheduled_deliveries, o.work.digest
    );
}

/// The untraced run: end-to-end metrics.
fn run_plain(w: Workload, size: &Size, seed: u64, seconds: f64) -> (Vec<Metric>, u64, u64, bool) {
    // Repeat the measured phase while another repetition is expected to
    // end within `seconds`; run it at least once. Peak RSS is read after
    // the first repetition: one set-up and one measured phase in a fresh
    // process, what one use of the workload costs. Set-ups are timed
    // right after it, so they never raise that peak, and every run times
    // them on the heap one repetition leaves behind.
    let mut outcomes: Vec<Outcome> = Vec::new();
    let (mut peak_rss, mut setups) = (0.0, None);
    let mut measured_s = 0.0;
    loop {
        let t0 = Instant::now();
        let mut o = run(w, size, setup(w, size, seed), None);
        measured_s += t0.elapsed().as_secs_f64();
        o.net = None;
        outcomes.push(o);
        if outcomes.len() == 1 {
            peak_rss = peak_rss_mb();
            setups = Some(time_setups(w, size, seed));
        }
        if measured_s * (outcomes.len() + 1) as f64 / outcomes.len() as f64 > seconds {
            break;
        }
    }
    let (setup_raw, kernel, setup_s, setups) = setups.expect("timed after the first repetition");
    let first = &outcomes[0];
    print_outcome(first);

    let lists: Vec<&Vec<Check>> = outcomes.iter().map(|o| &o.checks).collect();
    let (mut attempted, mut failed, mut correct) = tally(&lists);
    // Every iteration ran the same seed: the simulation must repeat
    // exactly.
    attempted += 1;
    if outcomes.iter().any(|o| o.work != first.work) {
        failed += 1;
        correct = false;
        println!("check FAIL iterations repeat the same work");
    }

    let walls: Vec<f64> = outcomes.iter().map(|o| o.wall_s).collect();
    let wall_s = median(&walls);
    let e2e = vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_s", wall_s, "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
    ];

    // Workload-specific results, printed for reading; the JSON line
    // carries only the metrics every workload has.
    println!(
        "setups {setups} setup_raw_s {setup_raw:.6e} reference_kernel_s {kernel:.6e} iterations {} wall_s_each {walls:?}",
        outcomes.len()
    );
    for (i, (phase, _)) in first.phases.iter().enumerate() {
        let v: Vec<f64> = outcomes.iter().map(|o| o.phases[i].1).collect();
        println!("{phase}_wall_s {:.6} s", median(&v));
    }
    if first.sim_s > 0.0 {
        println!("sim_s_per_wall_s {:.3} sim_s/s", first.sim_s / wall_s);
    }
    println!("configure_sim_s {} sim_s", first.configure_sim_s);
    println!("heal_sim_s {} sim_s", first.heal_sim_s);
    println!("delivery_ratio {} ratio", first.delivery_ratio);
    println!("tx_per_node_s {} 1/sim_s", first.tx_per_node_s);
    println!("fail_ratio {} ratio", failed as f64 / attempted as f64);
    (e2e, attempted, failed, correct)
}

/// The traced run: per-layer metrics.
fn run_traced(
    w: Workload,
    size: &Size,
    seed: u64,
    spans: Option<&str>,
) -> (Vec<Metric>, u64, u64, bool) {
    let mut plain = run(w, size, setup(w, size, seed), None);
    plain.net = None;
    print_outcome(&plain);

    let mut tracer = Tracer::new();
    let traced = run(w, size, setup(w, size, seed), Some(&mut tracer));
    let mc = certify(size, &mut tracer);
    for c in &mc.checks {
        println!(
            "check {:<4} {}",
            if c.passed { "ok" } else { "FAIL" },
            c.name
        );
    }
    let (mut attempted, mut failed, mut correct) =
        tally(&[&plain.checks, &traced.checks, &mc.checks]);
    attempted += 1;
    if traced.work != plain.work {
        failed += 1;
        correct = false;
        println!("check FAIL traced run repeats the untraced work");
    }
    let metrics = layers::metrics(&plain, &traced, &mc, &tracer);
    let path = spans
        .map(str::to_string)
        .unwrap_or_else(|| format!("perfbench/out/{}-seed{seed}.spans.jsonl", w.name()));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("create the spans directory");
    }
    std::fs::write(&path, tracer.spans_jsonl()).expect("write the spans file");
    println!("spans {path}");
    (metrics, attempted, failed, correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let size = if args.smoke { &SMOKE } else { &FULL };
    let (metrics, attempted, failed, correct) = if args.trace {
        run_traced(args.workload, size, args.seed, args.spans.as_deref())
    } else {
        run_plain(args.workload, size, args.seed, args.seconds)
    };
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            body.push_str(", ");
        }
        println!("{} {} {}", m.name, m.value, m.unit);
        body.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    ExitCode::SUCCESS
}
