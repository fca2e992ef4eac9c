//! `office_ckpt`: a grid of short §4 office runs, each checkpointed in
//! memory at every epoch, with a fixed subset resumed and run to the end
//! to check restore ≡ straight run.

use crate::trace::{Recorder, Span};
use crate::{digest, median, percentile, push_f64s, ratio, Counts, Outcome, Workload};
use powifi_core::Scheme;
use powifi_deploy::ckpt::{resume_value, save_office};
use powifi_deploy::{checkpoint, resume, OfficeConfig, OfficeRun, OfficeSpec, TrafficSpec};
use powifi_sim::ckpt::{self, CkptError};
use powifi_sim::obs::metrics::{self, keys};
use powifi_sim::SimDuration;

const SCHEMES: [Scheme; 2] = [Scheme::Baseline, Scheme::PoWiFi];
const TRAFFIC: [TrafficSpec; 2] = [TrafficSpec::Udp { rate_mbps: 10.0 }, TrafficSpec::Tcp];
/// `OfficeConfig::neighbors_per_channel`: checkpoint size grows with it.
const NEIGHBORS: [usize; 4] = [2, 4, 8, 16];
/// World seeds per grid point. Resume cost grows faster than checkpoint
/// size, so a few large checkpoints dominate a run; independent worlds
/// keep that from moving with the seed.
const WORLDS: u64 = 3;
const RUN_S: u64 = 5;
const EPOCH_MS: u64 = 500;
/// Epoch after which each run's checkpoint is resumed and run to the end.
const RESUME_AT: u64 = 5;
/// Tail percentiles: the highest round percentile with at least ten
/// samples beyond it, given the fewest samples a traced run pools (two
/// untraced repetitions of 528 checkpoints and 48 resumes).
const SAVE_TAIL: f64 = 99.0;
const RESUME_TAIL: f64 = 85.0;
/// Checkpoint size classes for `sim.ckpt.load_ns_per_byte`, upper bounds
/// in bytes.
const SIZE_CLASSES: [(&str, f64); 3] = [
    ("sim.ckpt.load_ns_per_byte.small", 128.0 * 1024.0),
    ("sim.ckpt.load_ns_per_byte.medium", 256.0 * 1024.0),
    ("sim.ckpt.load_ns_per_byte.large", f64::INFINITY),
];

pub struct OfficeCkpt {
    seed: u64,
}

impl OfficeCkpt {
    pub fn new(seed: u64) -> Self {
        OfficeCkpt { seed }
    }

    /// The grid; every cell gets a world seed of its own.
    fn specs(&self) -> Vec<OfficeSpec> {
        let cells = SCHEMES.len() as u64 * TRAFFIC.len() as u64 * NEIGHBORS.len() as u64 * WORLDS;
        let mut specs = Vec::new();
        for _ in 0..WORLDS {
            for scheme in SCHEMES {
                for traffic in TRAFFIC {
                    for neighbors in NEIGHBORS {
                        specs.push(OfficeSpec {
                            seed: self.seed.wrapping_mul(cells) + specs.len() as u64,
                            scheme,
                            cfg: OfficeConfig {
                                neighbors_per_channel: neighbors,
                                ..OfficeConfig::default()
                            },
                            traffic,
                            secs: RUN_S,
                            epoch: SimDuration::from_millis(EPOCH_MS),
                        });
                    }
                }
            }
        }
        specs
    }
}

/// `checkpoint(run)`; traced, as the three calls it makes.
fn save(rec: &mut Recorder, run: &OfficeRun, traced: bool) -> (Vec<u8>, String) {
    let (bytes, hash) = if traced {
        rec.nest("deploy.ckpt.checkpoint", |rec| {
            let root = rec
                .span("deploy.ckpt.save_office", || save_office(run))
                .expect("office runs hold only typed events");
            let hash = rec.span("sim.ckpt.state_hash", || ckpt::state_hash(&root));
            (rec.span("sim.ckpt.save", || ckpt::save(&root)), hash)
        })
    } else {
        rec.span("deploy.ckpt.checkpoint", || checkpoint(run))
            .expect("office runs hold only typed events")
    };
    rec.note("bytes", bytes.len() as f64);
    (bytes, hash)
}

/// `resume(bytes)`; traced, as the two calls it makes.
fn restore(rec: &mut Recorder, bytes: &[u8], traced: bool) -> Result<OfficeRun, CkptError> {
    let run = if traced {
        rec.nest("deploy.ckpt.resume", |rec| {
            let ck = rec.span("sim.ckpt.load", || ckpt::load(bytes));
            rec.note("bytes", bytes.len() as f64);
            rec.span("deploy.ckpt.resume_value", || resume_value(&ck?.root))
        })
    } else {
        rec.span("deploy.ckpt.resume", || resume(bytes))
    };
    rec.note("bytes", bytes.len() as f64);
    run
}

fn step(rec: &mut Recorder, run: &mut OfficeRun) {
    let before = run.q.executed();
    rec.span("deploy.office.step_epoch", || run.step_epoch());
    rec.note("events", (run.q.executed() - before) as f64);
}

/// One cell of the grid: the straight run's final state hash and
/// throughput, and the resumed run's final state hash.
struct Cell {
    final_hash: String,
    throughput_mbps: f64,
    resumed: Result<String, CkptError>,
}

impl Workload for OfficeCkpt {
    fn name(&self) -> &'static str {
        "office_ckpt"
    }

    fn setup_calls(&self) -> &'static [&'static str] {
        &["deploy.office.start"]
    }

    fn setup(&mut self, rec: &mut Recorder) {
        for spec in self.specs() {
            rec.span("deploy.office.start", || OfficeRun::start(&spec));
        }
    }

    fn rep(&mut self, rec: &mut Recorder, traced: bool) -> Outcome {
        let specs = self.specs();
        let mut counts = Counts::new();
        let mut pending = 0u64;
        let mut saves = 0u64;
        let mut sim_s = 0.0;
        let cells: Vec<Cell> = rec.nest("office_ckpt", |rec| {
            specs
                .iter()
                .map(|spec| {
                    metrics::reset();
                    let mut run = rec.span("deploy.office.start", || OfficeRun::start(spec));
                    let mut kept = None;
                    let mut final_hash = String::new();
                    while !run.done() {
                        step(rec, &mut run);
                        let (bytes, hash) = save(rec, &run, traced);
                        *counts.entry("ckpt.bytes").or_default() += bytes.len() as f64;
                        pending += run.q.pending() as u64;
                        saves += 1;
                        if run.epochs_done == RESUME_AT {
                            kept = Some(bytes);
                        }
                        final_hash = hash;
                    }
                    sim_s += RUN_S as f64;
                    run.record_run_telemetry();
                    let snap = metrics::snapshot();
                    for key in [
                        keys::SIM_EVENTS,
                        keys::MAC_FRAMES,
                        keys::MAC_COLLISIONS,
                        keys::MAC_RETRANSMISSIONS,
                        keys::CORE_POWER_SENT,
                        keys::CORE_POWER_GATED,
                        keys::NET_TCP_RTO,
                        keys::NET_TCP_FAST_RETRANSMIT,
                    ] {
                        *counts.entry(key).or_default() += snap.counter(key) as f64;
                    }
                    let bytes = kept.expect("runs span more than RESUME_AT epochs");
                    let resumed = restore(rec, &bytes, traced).map(|mut r| {
                        while !r.done() {
                            step(rec, &mut r);
                        }
                        sim_s += (r.epochs_done - RESUME_AT) as f64 * EPOCH_MS as f64 / 1e3;
                        save(rec, &r, traced).1
                    });
                    Cell {
                        final_hash,
                        throughput_mbps: run.throughput_mbps(),
                        resumed,
                    }
                })
                .collect()
        });
        rec.note("sim_s", sim_s);

        let frames = counts[keys::MAC_FRAMES];
        let retx = counts.remove(keys::MAC_RETRANSMISSIONS).unwrap_or(0.0);
        counts.insert("mac.retx_ratio", ratio(retx, frames));
        let sent = counts.remove(keys::CORE_POWER_SENT).unwrap_or(0.0);
        let gated = counts.remove(keys::CORE_POWER_GATED).unwrap_or(0.0);
        counts.insert("core.gated_ratio", ratio(gated, sent + gated));
        counts.insert("ckpt.pending_events", pending as f64);

        let mut failures = Vec::new();
        let mut out = Vec::new();
        let mut ops = 0;
        for (spec, cell) in specs.iter().zip(&cells) {
            out.extend_from_slice(cell.final_hash.as_bytes());
            push_f64s(&mut out, [cell.throughput_mbps]);
            ops += 3; // the run, the resume and the checkpoint at its end
            let cell_name = format!(
                "seed {} {:?}/{:?}/n{}",
                spec.seed, spec.scheme, spec.traffic, spec.cfg.neighbors_per_channel
            );
            match &cell.resumed {
                Ok(h) if *h == cell.final_hash => {}
                Ok(h) => failures.push(format!(
                    "{cell_name} resumed: final hash {h} != straight {}",
                    cell.final_hash
                )),
                Err(e) => failures.push(format!("{cell_name} resume failed: {e}")),
            }
        }
        Outcome {
            digest: digest(&counts, out),
            counts,
            ops: ops + saves,
            failures,
        }
    }

    fn layer_metrics(&self, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let ms = |name, traced| -> Vec<f64> {
            crate::named(spans, name, traced).map(Span::ms).collect()
        };
        let med = |name| median(&ms(name, true));
        let saves = ms("deploy.ckpt.checkpoint", false);
        let resumes = ms("deploy.ckpt.resume", false);
        let allocs = |name| {
            let v: Vec<f64> = crate::named(spans, name, true)
                .map(|s| s.allocs as f64)
                .collect();
            median(&v)
        };
        let steps: Vec<&Span> = crate::named(spans, "deploy.office.step_epoch", true).collect();
        let step_ns: f64 = steps.iter().map(|s| s.ns()).sum();
        let step_events: f64 = steps.iter().map(|s| s.attr("events")).sum();
        let sizes: Vec<f64> = crate::named(spans, "deploy.ckpt.checkpoint", false)
            .map(|s| s.attr("bytes"))
            .collect();
        let mut m = vec![
            ("deploy.office.start_ms", med("deploy.office.start")),
            (
                "deploy.office.step_ns_per_event",
                ratio(step_ns, step_events),
            ),
            ("deploy.ckpt.save_office_ms", med("deploy.ckpt.save_office")),
            ("sim.ckpt.encode_ms", med("sim.ckpt.save")),
            ("sim.ckpt.state_hash_ms", med("sim.ckpt.state_hash")),
            ("sim.ckpt.load_ms", med("sim.ckpt.load")),
            (
                "deploy.ckpt.resume_value_ms",
                med("deploy.ckpt.resume_value"),
            ),
            ("sim.ckpt.allocs_per_save", allocs("deploy.ckpt.checkpoint")),
            ("sim.ckpt.allocs_per_resume", allocs("deploy.ckpt.resume")),
            ("save_p50_ms", median(&saves)),
            ("save_tail_ms", percentile(&saves, SAVE_TAIL)),
            ("resume_p50_ms", median(&resumes)),
            ("resume_tail_ms", percentile(&resumes, RESUME_TAIL)),
            (
                "ckpt_kb",
                sizes.iter().sum::<f64>() / sizes.len().max(1) as f64 / 1024.0,
            ),
        ];
        let mut lower = 0.0;
        for (name, upper) in SIZE_CLASSES {
            let per_byte: Vec<f64> = crate::named(spans, "sim.ckpt.load", true)
                .filter(|s| (lower..upper).contains(&s.attr("bytes")))
                .map(|s| s.ns() / s.attr("bytes"))
                .collect();
            m.push((name, median(&per_byte)));
            lower = upper;
        }
        m
    }
}
