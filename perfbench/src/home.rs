//! `home_day`: Table 1's home 2 for one compressed day (§6, Figs. 14–15),
//! the longest single event loop the program runs.

use crate::trace::{Recorder, Span};
use crate::{digest, per_rep, push_f64s, ratio, Counts, Outcome, Workload};
use powifi_deploy::{build_home, sensor_rates_from_home, table1, HomeRun};
use powifi_sim::obs::metrics::{self, keys};
use powifi_sim::SimTime;

/// Simulated seconds per day: one per 60 s occupancy bin, as in
/// `fig15_home_update_rates` and the `tier1_home` roster entry.
const DAY_S: u64 = 1440;
/// Simulated seconds per `run_until` call: the day runs as 24 calls, the
/// same events as one call, so that its time is measured in pieces.
const CHUNK_S: u64 = 60;
/// Sensor distance from the router for the Fig. 15 update rates, feet.
const SENSOR_FT: f64 = 10.0;

pub struct HomeDay {
    seed: u64,
}

impl HomeDay {
    pub fn new(seed: u64) -> Self {
        HomeDay { seed }
    }
}

impl Workload for HomeDay {
    fn name(&self) -> &'static str {
        "home_day"
    }

    fn setup_calls(&self) -> &'static [&'static str] {
        &["deploy.home.build_home"]
    }

    fn setup(&mut self, rec: &mut Recorder) {
        rec.span("deploy.home.build_home", || {
            build_home(table1()[1], self.seed, DAY_S)
        });
    }

    fn rep(&mut self, rec: &mut Recorder, _traced: bool) -> Outcome {
        metrics::reset();
        let cfg = table1()[1];
        let end = SimTime::from_secs(DAY_S);
        let (w, run, rates, events) = rec.nest("home_day", |rec| {
            let (mut w, mut q, home) = rec.span("deploy.home.build_home", || {
                build_home(cfg, self.seed, DAY_S)
            });
            for t in (CHUNK_S..=DAY_S).step_by(CHUNK_S as usize) {
                let before = q.executed();
                let until = SimTime::from_secs(t);
                rec.span("sim.queue.run_until", || q.run_until(&mut w, until));
                rec.note("events", (q.executed() - before) as f64);
            }
            let events = q.executed();
            let (per_channel, duty) = rec.span("core.router.series", || {
                (
                    home.router.occupancy_series(&w.mac, end),
                    home.router.duty_series(&w.mac, end),
                )
            });
            // Assembled as `run_home` does.
            let bins = per_channel[0].len();
            let cumulative: Vec<f64> = (0..bins)
                .map(|b| per_channel.iter().map(|c| c[b]).sum())
                .collect();
            let mean_cumulative = cumulative.iter().sum::<f64>() / bins as f64;
            let bin_ns = home.bin().as_nanos();
            let hours = (0..bins as u64)
                .map(|b| home.hour_at(SimTime::from_nanos(b * bin_ns + bin_ns / 2)))
                .collect();
            let run = HomeRun {
                config: cfg,
                per_channel,
                cumulative,
                duty,
                mean_cumulative,
                hours,
            };
            let rates = rec.span("sensors.rates", || sensor_rates_from_home(&run, SENSOR_FT));
            w.mac.record_metrics();
            for inj in &home.router.injectors {
                inj.borrow().record_metrics();
            }
            (w, run, rates, events)
        });
        rec.note("sim_s", DAY_S as f64);

        let snap = metrics::snapshot();
        let frames = snap.counter(keys::MAC_FRAMES) as f64;
        let sent = snap.counter(keys::CORE_POWER_SENT) as f64;
        let gated = snap.counter(keys::CORE_POWER_GATED) as f64;
        let counts = Counts::from([
            ("sim.events", events as f64),
            ("mac.frames_sent", frames),
            ("mac.collisions", snap.counter(keys::MAC_COLLISIONS) as f64),
            (
                "mac.retx_ratio",
                ratio(snap.counter(keys::MAC_RETRANSMISSIONS) as f64, frames),
            ),
            ("core.gated_ratio", ratio(gated, sent + gated)),
        ]);
        let mut out = w.mac.total_busy().as_nanos().to_le_bytes().to_vec();
        push_f64s(&mut out, [run.mean_cumulative]);
        push_f64s(&mut out, run.per_channel.iter().flatten().copied());
        push_f64s(&mut out, run.duty.iter().flatten().copied());
        push_f64s(&mut out, rates.iter().copied());

        let mut failures = Vec::new();
        // §6: mean cumulative occupancies of 78–127 %; the tier-1 test
        // `compressed_home_run_has_1440_bins_and_high_cumulative` allows
        // 0.7–2.2 for the compressed day.
        if !(0.7..=2.2).contains(&run.mean_cumulative) {
            failures.push(format!(
                "mean cumulative occupancy {} outside 0.7-2.2",
                run.mean_cumulative
            ));
        }
        if rates.len() != DAY_S as usize || rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
            failures.push("sensor update rates not one finite rate per bin".into());
        }
        Outcome {
            digest: digest(&counts, out),
            counts,
            ops: 1,
            failures,
        }
    }

    fn layer_metrics(&self, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let run = |f: fn(&Span) -> f64| per_rep(spans, "sim.queue.run_until", f);
        let events = run(|s| s.attr("events"));
        vec![
            (
                "deploy.home.build_ms",
                per_rep(spans, "deploy.home.build_home", Span::ms),
            ),
            ("sim.queue.run_ms", run(Span::ms)),
            ("sim.queue.ns_per_event", ratio(run(Span::ns), events)),
            (
                "sim.queue.allocs_per_event",
                ratio(run(|s| s.allocs as f64), events),
            ),
            (
                "core.router.series_ms",
                per_rep(spans, "core.router.series", Span::ms),
            ),
            (
                "sensors.rates_ms",
                per_rep(spans, "sensors.rates", Span::ms),
            ),
        ]
    }
}
