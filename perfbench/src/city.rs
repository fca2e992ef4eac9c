//! `city_block`: a 100k-unit apartment block run sharded on two worker
//! threads — topology generation, partition, shard build, epoch-barrier
//! exchange and memory at paper scale.

use crate::trace::{status_mb, Recorder, Span};
use crate::{digest, per_rep, push_f64s, Counts, Outcome, Workload};
use powifi_deploy::city::runtime::{run_city, CityConfig};
use powifi_deploy::{apartment_block, partition};

const NETWORKS: usize = 100_000;
/// Worker threads: the benchmark host's core count.
const JOBS: usize = 2;

pub struct CityBlock {
    seed: u64,
}

impl CityBlock {
    pub fn new(seed: u64) -> Self {
        CityBlock { seed }
    }
}

impl Workload for CityBlock {
    fn name(&self) -> &'static str {
        "city_block"
    }

    fn setup_calls(&self) -> &'static [&'static str] {
        &["deploy.city.apartment_block"]
    }

    fn setup(&mut self, rec: &mut Recorder) {
        rec.span("deploy.city.apartment_block", || {
            apartment_block(NETWORKS, self.seed)
        });
    }

    fn rep(&mut self, rec: &mut Recorder, traced: bool) -> Outcome {
        let cfg = CityConfig {
            seed: self.seed,
            jobs: JOBS,
            ..CityConfig::default()
        };
        let (topo, run) = rec.nest("city_block", |rec| {
            let topo = rec.span("deploy.city.apartment_block", || {
                apartment_block(NETWORKS, self.seed)
            });
            rec.note("rss_mb", status_mb("VmRSS"));
            let run = rec.span("deploy.city.run_city", || run_city(&topo, &cfg));
            rec.note("events", run.events as f64);
            rec.note("rss_mb", status_mb("VmRSS"));
            (topo, run)
        });
        rec.note("sim_s", topo.horizon.as_secs_f64());

        let mut failures = Vec::new();
        // `run_city` partitions internally; a traced repetition repeats the
        // same call on its own, outside the root span, to split it out.
        if traced {
            let part = rec.span("deploy.city.partition", || {
                partition(&topo, cfg.max_group, cfg.max_shard)
            });
            rec.note("rss_mb", status_mb("VmRSS"));
            if (part.shards.len(), part.groups.len()) != (run.shards, run.groups) {
                failures.push("standalone partition disagrees with run_city".into());
            }
        }

        let counts = Counts::from([
            ("sim.events", run.events as f64),
            ("mac.frames_sent", run.frames as f64),
            ("city.shards", run.shards as f64),
            ("city.groups", run.groups as f64),
            ("city.boundary_links", run.boundary_links as f64),
            ("city.epochs", run.epochs as f64),
        ]);
        let mut out: Vec<u8> = run.busy_ns.iter().flat_map(|b| b.to_le_bytes()).collect();
        push_f64s(&mut out, run.harvested_j.iter().copied());
        out.extend_from_slice(&run.violations.to_le_bytes());

        if run.networks != NETWORKS || run.harvested_j.len() != NETWORKS {
            failures.push(format!("{} networks simulated", run.networks));
        }
        if run.violations != 0 {
            failures.push(format!("{} conformance violations", run.violations));
        }
        if run.events == 0 || run.harvested_j.iter().any(|j| !j.is_finite() || *j < 0.0) {
            failures.push("no events, or harvested energy not finite and >= 0".into());
        }
        Outcome {
            digest: digest(&counts, out),
            counts,
            ops: 1,
            failures,
        }
    }

    fn layer_metrics(&self, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let run = |f: &dyn Fn(&Span) -> f64| per_rep(spans, "deploy.city.run_city", f);
        let partition_ms = per_rep(spans, "deploy.city.partition", Span::ms);
        let runtime_ms = run(&Span::ms) - partition_ms;
        vec![
            (
                "deploy.city.topology_ms",
                per_rep(spans, "deploy.city.apartment_block", Span::ms),
            ),
            ("deploy.city.partition_ms", partition_ms),
            ("deploy.city.runtime_ms", runtime_ms),
            (
                "deploy.city.ns_per_event",
                runtime_ms * 1e6 / run(&|s| s.attr("events")),
            ),
            (
                "deploy.city.cpu_util",
                run(&|s| s.cpu_ns as f64 / (JOBS as f64 * s.ns())),
            ),
            (
                "deploy.city.allocs_per_event",
                run(&|s| s.allocs as f64 / s.attr("events")),
            ),
            (
                "deploy.city.rss_mb.topology",
                per_rep(spans, "deploy.city.apartment_block", |s| s.attr("rss_mb")),
            ),
            (
                "deploy.city.rss_mb.partition",
                per_rep(spans, "deploy.city.partition", |s| s.attr("rss_mb")),
            ),
            ("deploy.city.rss_mb.run", run(&|s| s.attr("rss_mb"))),
        ]
    }
}
