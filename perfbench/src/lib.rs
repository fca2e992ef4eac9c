//! The repository benchmark: three workloads run through the public entry
//! points of `powifi-deploy`, `powifi-sim` and `powifi-core`, timed from
//! outside, with their outputs checked. See `README.md` beside this crate.
//!
//! Two binaries share this library. `perfbench` measures the end-to-end
//! metrics; `perfbench-traced` installs the counting allocator, alternates
//! untraced and traced repetitions, writes the span log and derives the
//! per-layer metrics from it.

mod trace;

mod city;
mod home;
mod office;

pub use trace::CountingAlloc;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Recorder, Span};

/// End-to-end metrics, printed by `perfbench`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("sim_speed", "sim_s/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by `perfbench-traced`: `(name, unit)`. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("deploy.home.build_ms", "ms"),
    ("sim.queue.run_ms", "ms"),
    ("sim.queue.ns_per_event", "ns/event"),
    ("sim.queue.allocs_per_event", "alloc/event"),
    ("core.router.series_ms", "ms"),
    ("sensors.rates_ms", "ms"),
    ("deploy.city.topology_ms", "ms"),
    ("deploy.city.partition_ms", "ms"),
    ("deploy.city.runtime_ms", "ms"),
    ("deploy.city.ns_per_event", "ns/event"),
    ("deploy.city.cpu_util", "ratio"),
    ("deploy.city.allocs_per_event", "alloc/event"),
    ("deploy.city.rss_mb.topology", "MiB"),
    ("deploy.city.rss_mb.partition", "MiB"),
    ("deploy.city.rss_mb.run", "MiB"),
    ("deploy.office.start_ms", "ms"),
    ("deploy.office.step_ns_per_event", "ns/event"),
    ("deploy.ckpt.save_office_ms", "ms"),
    ("sim.ckpt.encode_ms", "ms"),
    ("sim.ckpt.state_hash_ms", "ms"),
    ("sim.ckpt.load_ms", "ms"),
    ("sim.ckpt.load_ns_per_byte.small", "ns/B"),
    ("sim.ckpt.load_ns_per_byte.medium", "ns/B"),
    ("sim.ckpt.load_ns_per_byte.large", "ns/B"),
    ("deploy.ckpt.resume_value_ms", "ms"),
    ("sim.ckpt.allocs_per_save", "alloc/op"),
    ("sim.ckpt.allocs_per_resume", "alloc/op"),
    ("save_p50_ms", "ms"),
    ("save_tail_ms", "ms"),
    ("resume_p50_ms", "ms"),
    ("resume_tail_ms", "ms"),
    ("ckpt_kb", "KiB"),
    ("trace_overhead_pct", "%"),
    ("trace.wall_s", "s"),
    ("trace.calls_s", "s"),
    ("sim.events", "count"),
    ("mac.frames_sent", "count"),
    ("mac.collisions", "count"),
    ("mac.retx_ratio", "ratio"),
    ("core.gated_ratio", "ratio"),
    ("net.tcp_rto", "count"),
    ("net.tcp_fast_retransmit", "count"),
    ("city.shards", "count"),
    ("city.groups", "count"),
    ("city.boundary_links", "count"),
    ("city.epochs", "count"),
    ("ckpt.bytes", "count"),
    ("ckpt.pending_events", "count"),
];

/// Expected output digests, `workload seed digest` per line.
const EXPECTED: &str = include_str!("../expected_digests.txt");

const USAGE: &str = "usage: perfbench --workload home_day|city_block|office_ckpt --seed N \
     --seconds S --trace 0|1 [--trace-file PATH] [--expect-digest HEX]";

/// Deterministic counts of one repetition, by metric name. A change that
/// only makes the program faster leaves every one of them unchanged.
type Counts = BTreeMap<&'static str, f64>;

/// What one repetition produced besides its spans.
struct Outcome {
    /// The repetition's deterministic counts.
    counts: Counts,
    /// Digest of the deterministic outputs (counts included).
    digest: String,
    /// Operations attempted: simulation runs, checkpoints and resumes.
    ops: u64,
    /// Output checks that failed, described.
    failures: Vec<String>,
}

/// A benchmark workload.
trait Workload {
    /// The workload's name, which is also its root span's name.
    fn name(&self) -> &'static str;
    /// The spans whose durations sum to the repetition's set-up time.
    fn setup_calls(&self) -> &'static [&'static str];
    /// Make only the set-up calls, recording them as spans.
    fn setup(&mut self, rec: &mut Recorder);
    /// Run one repetition: one root span timing the work, then the checks.
    fn rep(&mut self, rec: &mut Recorder, traced: bool) -> Outcome;
    /// Per-layer metrics from the span log (traced and untraced reps).
    fn layer_metrics(&self, spans: &[Span]) -> Vec<(&'static str, f64)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_file: Option<String>,
    expect_digest: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut trace_file, mut expect_digest) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("want 0 < S <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            "--trace-file" => trace_file = Some(value),
            "--expect-digest" => expect_digest = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        trace_file,
        expect_digest,
    })
}

fn expected_digest(workload: &str, seed: u64) -> Option<String> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[0] == workload && f[1] == seed.to_string())
        .map(|f| f[2].to_string())
}

/// Entry point of both binaries; returns the process exit code.
pub fn main(traced_binary: bool) -> i32 {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    if args.traced != traced_binary {
        let bin = ["perfbench", "perfbench-traced"][usize::from(args.traced)];
        eprintln!("perfbench: --trace {} runs in {bin}", u8::from(args.traced));
        return 2;
    }
    let mut wl: Box<dyn Workload> = match args.workload.as_str() {
        "home_day" => Box::new(home::HomeDay::new(args.seed)),
        "city_block" => Box::new(city::CityBlock::new(args.seed)),
        "office_ckpt" => Box::new(office::OfficeCkpt::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return 2;
        }
    };
    let mut rec = Recorder::default();
    let outcomes = repeat(wl.as_mut(), &mut rec, traced_binary, args.seconds);
    let expected =
        (args.expect_digest.clone()).or_else(|| expected_digest(&args.workload, args.seed));
    let failures = check(&outcomes, expected.as_deref());
    for f in &failures {
        println!("FAILED {f}");
    }
    let attempted: u64 = outcomes.iter().map(|o| o.ops).sum();
    let failed = (failures.len() as u64).min(attempted);

    let metrics = if traced_binary {
        if let Some(path) = &args.trace_file {
            if let Err(e) = write_trace(path, &rec) {
                eprintln!("perfbench: writing {path}: {e}");
                return 1;
            }
        }
        per_layer(wl.as_ref(), &rec.spans, &outcomes[1].counts)
    } else {
        end_to_end(wl.as_ref(), &rec.spans)
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_f64(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    i32::from(failed > 0)
}

/// Set-up-only samples taken before each repetition of an untraced run.
const SETUP_SAMPLES_PER_REP: usize = 5;

/// Run `wl` until `seconds` are spent: at least two repetitions (two of
/// each kind, alternating, when traced), and no repetition started that
/// would be expected to end past the budget.
fn repeat(
    wl: &mut dyn Workload,
    rec: &mut Recorder,
    traced_binary: bool,
    seconds: f64,
) -> Vec<Outcome> {
    let min_reps = if traced_binary { 4 } else { 2 };
    let budget = Duration::from_secs_f64(seconds);
    let mut outcomes: Vec<Outcome> = Vec::new();
    let started = Instant::now();
    loop {
        let rep = outcomes.len();
        let traced = traced_binary && rep % 2 == 1;
        rec.start_rep(rep, traced);
        if !traced_binary {
            // Set-up is short next to a repetition: sample it on its own
            // too, spread over the run, so that `setup_s` is a median over
            // many calls made at different times.
            for _ in 0..SETUP_SAMPLES_PER_REP {
                rec.nest("setup", |rec| wl.setup(rec));
            }
        }
        trace::set_counting(traced);
        let out = wl.rep(rec, traced);
        trace::set_counting(false);
        let root = rec.spans.iter().rev().find(|s| s.name == wl.name());
        println!(
            "rep {rep} traced={traced} wall_s={} events={} ops={} digest={} failures={}",
            root.map_or(0.0, |s| s.ns() / 1e9),
            out.counts.get("sim.events").copied().unwrap_or(0.0),
            out.ops,
            out.digest,
            out.failures.len()
        );
        outcomes.push(out);
        let n = outcomes.len() as u32;
        let elapsed = started.elapsed();
        if n >= min_reps && elapsed + elapsed / n > budget {
            return outcomes;
        }
    }
}

/// Every failed check: the workload's own, plus counts and digest that
/// differ between repetitions or from the expected digest.
fn check(outcomes: &[Outcome], expected: Option<&str>) -> Vec<String> {
    let mut failures = Vec::new();
    for (rep, out) in outcomes.iter().enumerate() {
        failures.extend(out.failures.iter().map(|f| format!("rep {rep}: {f}")));
        if out.counts != outcomes[0].counts {
            failures.push(format!("rep {rep}: counts differ from rep 0"));
        }
        if out.digest != outcomes[0].digest {
            failures.push(format!("rep {rep}: digest differs from rep 0"));
        }
        if expected.is_some_and(|want| out.digest != want) {
            failures.push(format!(
                "rep {rep}: digest {} != expected {}",
                out.digest,
                expected.unwrap_or_default()
            ));
        }
    }
    failures
}

/// `(name, unit, value)` of every end-to-end metric, from the untraced
/// repetitions. `wall_s`, `cpu_s` and `sim_speed` add up the pieces of a
/// repetition, each piece's time the median over repetitions; `setup_s` is
/// the median over every set-up, set-up-only samples included.
fn end_to_end(wl: &dyn Workload, spans: &[Span]) -> Vec<(&'static str, &'static str, f64)> {
    let pieces = pieces(spans, wl.name());
    let run: Vec<&Piece> = pieces
        .iter()
        .filter(|p| !wl.setup_calls().contains(&p.name))
        .collect();
    let roots = spans.iter().enumerate().filter(|(_, s)| {
        s.parent.is_none() && !s.traced && (s.name == wl.name() || s.name == "setup")
    });
    let setups: Vec<f64> = roots
        .clone()
        .map(|(id, _)| {
            spans
                .iter()
                .filter(|s| s.parent == Some(id) && wl.setup_calls().contains(&s.name))
                .map(Span::ns)
                .sum::<f64>()
                / 1e9
        })
        .collect();
    let sim_s = median(
        &roots
            .filter(|(_, s)| s.name == wl.name())
            .map(|(_, s)| s.attr("sim_s"))
            .collect::<Vec<_>>(),
    );
    let values = [
        pieces.iter().map(|p| p.wall_s).sum(),
        median(&setups),
        pieces.iter().map(|p| p.cpu_s).sum(),
        sim_s / run.iter().map(|p| p.wall_s).sum::<f64>(),
        trace::status_mb("VmHWM"),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// Name of the piece holding a repetition's time outside its timed calls.
const BETWEEN_CALLS: &str = "between calls";

/// One piece of a repetition: a timed call made directly in its root span,
/// or [`BETWEEN_CALLS`]. Its times are medians over the untraced
/// repetitions of the piece at the same position, so that a slow spell on
/// the host while one call runs moves one sample of one piece.
struct Piece {
    name: &'static str,
    wall_s: f64,
    cpu_s: f64,
}

/// The pieces of the untraced repetitions of workload `root`, in order.
/// Every repetition makes the same calls in the same order.
fn pieces(spans: &[Span], root: &str) -> Vec<Piece> {
    let reps: Vec<Vec<(&'static str, f64, f64)>> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root && !s.traced)
        .map(|(id, r)| {
            let mut calls: Vec<_> = spans
                .iter()
                .filter(|s| s.parent == Some(id))
                .map(|s| (s.name, s.ns(), s.cpu_ns as f64))
                .collect();
            let ns: f64 = calls.iter().map(|c| c.1).sum();
            let cpu: f64 = calls.iter().map(|c| c.2).sum();
            calls.push((BETWEEN_CALLS, r.ns() - ns, r.cpu_ns as f64 - cpu));
            calls
        })
        .collect();
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    assert!(
        reps.iter()
            .all(|r| r.iter().map(|c| c.0).eq(first.iter().map(|c| c.0))),
        "repetitions of {root} made different calls"
    );
    let col = |k: usize, f: fn(&(&str, f64, f64)) -> f64| {
        median(&reps.iter().map(|r| f(&r[k])).collect::<Vec<_>>()) / 1e9
    };
    (0..first.len())
        .map(|k| Piece {
            name: first[k].0,
            wall_s: col(k, |c| c.1),
            cpu_s: col(k, |c| c.2),
        })
        .collect()
}

/// `(name, unit, value)` of every per-layer metric, 0 where the workload
/// makes no such call.
fn per_layer(
    wl: &dyn Workload,
    spans: &[Span],
    counts: &Counts,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut values: BTreeMap<&str, f64> = wl.layer_metrics(spans).into_iter().collect();
    values.extend(trace_metrics(spans, wl));
    values.extend(counts.iter().map(|(k, v)| (*k, *v)));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn write_trace(path: &str, rec: &Recorder) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_jsonl(&mut out)?;
    out.into_inner().map_err(|e| e.into_error())?.sync_all()
}

/// `trace_overhead_pct`, `trace.wall_s` and `trace.calls_s`: medians over
/// the root spans of the untraced and the traced repetitions.
fn trace_metrics(spans: &[Span], wl: &dyn Workload) -> Vec<(&'static str, f64)> {
    let roots = |traced: bool| {
        spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == wl.name() && s.traced == traced)
    };
    let wall = |traced| median(&roots(traced).map(|(_, s)| s.ns() / 1e9).collect::<Vec<_>>());
    let calls: Vec<f64> = roots(true)
        .map(|(id, _)| {
            let children = spans.iter().filter(|s| s.parent == Some(id));
            children.map(Span::ns).sum::<f64>() / 1e9
        })
        .collect();
    vec![
        (
            "trace_overhead_pct",
            (wall(true) / wall(false) - 1.0) * 100.0,
        ),
        ("trace.wall_s", wall(true)),
        ("trace.calls_s", median(&calls)),
    ]
}

/// Median (mean of the middle two for an even count); 0 for no values.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100]; 0 for no values.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Spans named `name` from traced (or untraced) repetitions.
fn named<'a>(spans: &'a [Span], name: &'a str, traced: bool) -> impl Iterator<Item = &'a Span> {
    spans
        .iter()
        .filter(move |s| s.name == name && s.traced == traced)
}

/// Median over traced repetitions of `f` summed over each repetition's
/// spans named `name`.
fn per_rep(spans: &[Span], name: &str, f: impl Fn(&Span) -> f64) -> f64 {
    let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
    for s in named(spans, name, true) {
        *sums.entry(s.rep).or_default() += f(s);
    }
    median(&sums.into_values().collect::<Vec<_>>())
}

/// A float as JSON: shortest round-trip digits, `null` if not finite.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Append `v`'s exact bits to a digest buffer.
fn push_f64s(buf: &mut Vec<u8>, values: impl IntoIterator<Item = f64>) {
    for v in values {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Digest of the counts plus `outputs`: 128-bit FNV-1a, the checkpoint
/// container's content hash.
fn digest(counts: &Counts, mut outputs: Vec<u8>) -> String {
    for (k, v) in counts {
        outputs.extend_from_slice(k.as_bytes());
        push_f64s(&mut outputs, [*v]);
    }
    powifi_sim::ckpt::fnv1a128_hex(&outputs)
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
