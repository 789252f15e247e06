//! The `serve-mixed` workload: an in-process `mbfi-serve` daemon on
//! loopback with one engine thread per core, driven by a closed loop of one
//! client thread per core.  Each client sends its seeded sequence of small
//! Tiny grids through `mbfi_serve::submit_with`, waiting for each report
//! before sending the next request.  Some requests repeat an earlier one
//! (`inputs::serve_repeat_share`), so cell-cache hits sit beside misses.
//!
//! The timed section is a series of rounds; in a round every client sends
//! `SERVE_REQUESTS_PER_ROUND` requests of the round's input slot.  Before
//! every round after the first, the daemon is stopped and set up again
//! (spawn and warm-up), so each round is served by a fresh daemon and the
//! rounds of one slot differ only in how fast the machine ran them; the
//! end-to-end metrics are taken over the median round of each slot
//! (`stats::slot_medians`).  Further set-ups run between rounds on the
//! schedule of `layers::setup_due`.  In a traced run, odd rounds are traced
//! and even rounds are not.

use crate::calib;
use crate::inputs::{self, ServeRequest, SERVE_REQUESTS_PER_ROUND};
use crate::layers::{self, SERIAL_SAMPLE};
use crate::metrics::Values;
use crate::stats::{median, ratio, slot_medians, tail};
use crate::trace::Tracer;
use crate::{Args, RunReport};
use mbfi_bench::WorkloadData;
use mbfi_core::report::Json;
use mbfi_core::{
    CampaignSpec, GoldenRun, Sweep, SweepCampaign, SweepConfig, SweepReport, TelemetryEvent,
};
use mbfi_serve::{CellRequest, GridRequest, ServeError, ServerConfig};
use mbfi_workloads::{all_workloads, InputSize};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A request whose report takes longer than this counts as timed out.
const TIMEOUT: Duration = Duration::from_secs(10);
/// In round 0, every this-many-th fresh request of each client is kept and
/// compared with an in-process sweep after the timed section.
const CHECK_EVERY: usize = 4;

/// One request as the client saw it.
struct Served {
    rtt_ms: f64,
    repeat: bool,
    /// Why the request failed, if it did.
    failure: Option<&'static str>,
    events: usize,
    deduped: u64,
    cells: usize,
    /// Experiments the daemon executed for this request (0 for a repeat,
    /// whose cells were executed for the request it repeats).
    executed: u64,
    /// The report, until the round's repeats have been compared with the
    /// requests they repeat.
    report: Option<SweepReport>,
    /// The cells and report, for requests kept for the output check.
    kept: Option<(Vec<CellRequest>, SweepReport)>,
}

struct Round {
    wall_s: f64,
    served: Vec<Served>,
    slot: u64,
    traced: bool,
}

/// The median round of each input slot, by wall time, among the traced or
/// untraced rounds, in slot order.
fn median_rounds(rounds: &[Round], traced: bool) -> Vec<&Round> {
    let rounds: Vec<&Round> = rounds.iter().filter(|r| r.traced == traced).collect();
    let slots: Vec<u64> = rounds.iter().map(|r| r.slot).collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    slot_medians(&slots, &walls)
        .into_iter()
        .map(|i| rounds[i])
        .collect()
}

/// Experiments the daemon executed per second of `rounds`.
fn exp_per_s(rounds: &[&Round]) -> f64 {
    ratio(
        rounds
            .iter()
            .flat_map(|r| &r.served)
            .map(|s| s.executed)
            .sum::<u64>() as f64,
        rounds.iter().map(|r| r.wall_s).sum(),
    )
}

/// Whether every cell of a report holds the experiments its request asked
/// for: the fixed n, or an adaptive cell's realized count within its bounds.
fn complete(cells: &[CellRequest], report: &SweepReport) -> bool {
    report.results.len() == cells.len()
        && cells.iter().zip(&report.results).all(|(cell, r)| {
            let total = r.result.total();
            match (&cell.precision, &r.result.adaptive) {
                (None, _) => total == cell.experiments as u64,
                (Some(p), Some(status)) => {
                    total == status.experiments()
                        && (p.min_experiments as u64..=p.max_experiments as u64).contains(&total)
                }
                (Some(_), None) => false,
            }
        })
}

fn request_id(round: u64, client: u64, index: usize) -> u64 {
    (round << 32) | (client << 16) | index as u64
}

/// One client's closed loop for one round.
fn client_round(
    addr: SocketAddr,
    tracer: &Tracer,
    seed: u64,
    round: u64,
    slot: u64,
    client: u64,
    workloads: &[String],
) -> Vec<Served> {
    let requests = inputs::serve_requests(seed, slot, client, SERVE_REQUESTS_PER_ROUND, workloads);
    requests
        .into_iter()
        .enumerate()
        .map(
            |(
                i,
                ServeRequest {
                    cells,
                    repeat: repeat_of,
                },
            )| {
                let grid = GridRequest {
                    threads: 0,
                    priority: 0,
                    cells,
                };
                let (mut first, mut last, mut events) = (None, None, 0usize);
                let t0 = Instant::now();
                let outcome = mbfi_serve::submit_with(addr, &grid, &mut |_: &TelemetryEvent| {
                    let now = Instant::now();
                    first.get_or_insert(now);
                    last = Some(now);
                    events += 1;
                });
                let t1 = Instant::now();
                let id = request_id(round, client, i);
                let root = tracer.record("serve.request", t0, t1, None, id);
                if let (Some(first), Some(last)) = (first, last) {
                    tracer.record("serve.first_event", t0, first, root, id);
                    tracer.record("serve.report", last, t1, root, id);
                }
                let rtt = t1 - t0;
                let repeat = repeat_of.is_some();
                let mut served = Served {
                    rtt_ms: rtt.as_secs_f64() * 1e3,
                    repeat,
                    failure: None,
                    events,
                    deduped: 0,
                    cells: grid.cells.len(),
                    executed: 0,
                    report: None,
                    kept: None,
                };
                match outcome {
                    Err(ServeError::Io(_)) => served.failure = Some("io"),
                    Err(ServeError::Protocol(_)) => served.failure = Some("protocol"),
                    Err(ServeError::Remote(_)) => served.failure = Some("remote"),
                    Ok(_) if rtt > TIMEOUT => served.failure = Some("timeout"),
                    Ok(out) if !complete(&grid.cells, &out.report) => {
                        served.failure = Some("short")
                    }
                    Ok(out) => {
                        served.deduped = out.deduped;
                        if !repeat {
                            served.executed =
                                out.report.results.iter().map(|r| r.result.total()).sum();
                            if round == 0 && i % CHECK_EVERY == 0 {
                                served.kept = Some((grid.cells, out.report.clone()));
                            }
                        }
                        served.report = Some(out.report);
                    }
                }
                served
            },
        )
        .collect()
}

/// Compare each repeat's report, served from the cell cache, with the
/// report of the request it repeats, byte for byte, then drop the reports.
/// `served` is one client's requests of one round, in order.
fn check_repeats(
    round: u64,
    client: usize,
    served: &mut [Served],
    requests: &[ServeRequest],
) -> Vec<String> {
    let render = |s: &Served| s.report.as_ref().map(|r| r.to_json().render());
    let mut errors = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let Some(j) = request.repeat else { continue };
        if let (Some(repeat), Some(original)) = (render(&served[i]), render(&served[j])) {
            if repeat != original {
                errors.push(format!(
                    "round {round} client {client}: request {i} repeats request {j} \
                     but its served report differs"
                ));
            }
        }
    }
    for s in served {
        s.report = None;
    }
    errors
}

/// Compare each kept served report with in-process sweeps of its cells: one
/// `Sweep::run` per cell with the cell's own precision, as the daemon runs
/// them, over artefacts built without a checkpoint store, as the daemon
/// builds them.
fn check_reports(data: &[WorkloadData], kept: &[&(Vec<CellRequest>, SweepReport)]) -> Vec<String> {
    let mut errors = Vec::new();
    for (cells, report) in kept {
        let mut warnings = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let Some(d) = data
                .iter()
                .find(|d| d.name.eq_ignore_ascii_case(&cell.workload))
            else {
                errors.push(format!("no in-process artefacts for {}", cell.workload));
                continue;
            };
            let local = Sweep::run(
                &[d.sweep_unit()],
                &[SweepCampaign {
                    unit: 0,
                    spec: cell.spec(),
                }],
                &SweepConfig {
                    precision: cell.precision,
                    ..SweepConfig::default()
                },
            );
            for w in local.warnings {
                if !warnings.contains(&w) {
                    warnings.push(w);
                }
            }
            let same = report
                .results
                .get(i)
                .is_some_and(|r| r.to_json().render() == local.results[0].to_json().render());
            if !same {
                errors.push(format!(
                    "served cell {} {} {} seed {} differs from the in-process sweep",
                    cell.workload,
                    cell.technique.short_name(),
                    cell.model,
                    cell.seed
                ));
            }
        }
        if report.warnings != warnings {
            errors.push("served warnings differ from the in-process sweep".to_string());
        }
    }
    errors
}

pub fn serve_mixed(args: &Args) -> RunReport {
    let tracer = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let nproc = crate::nproc();
    let names: Vec<String> = all_workloads()
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let config = ServerConfig {
        threads: nproc,
        ..ServerConfig::default()
    };
    let warmup = GridRequest {
        threads: 0,
        priority: 0,
        cells: inputs::warmup_cells(args.seed, &names),
    };
    let mut errors = Vec::new();
    let mut setup_s = Vec::new();
    let mut daemon = None;
    // One set-up: stop the daemon in use, if any, then spawn a new one and
    // warm it up.
    let set_up = |daemon: &mut Option<mbfi_serve::ServerHandle>,
                  setup_s: &mut Vec<f64>,
                  errors: &mut Vec<String>| {
        let rep = setup_s.len() as u64;
        // Dropping the handle stops that daemon and waits for it.
        drop(daemon.take());
        let t0 = Instant::now();
        let root = tracer.open("setup", None, rep);
        let handle = tracer
            .span("serve.spawn", root, rep, || mbfi_serve::spawn(config))
            .expect("bind a loopback port");
        let warm = tracer.span("serve.warmup", root, rep, || {
            mbfi_serve::submit(handle.addr(), &warmup)
        });
        tracer.close(root);
        setup_s.push(t0.elapsed().as_secs_f64());
        match warm {
            Ok(out) if complete(&warmup.cells, &out.report) => {}
            Ok(_) => errors.push("warm-up report is short".to_string()),
            Err(e) => errors.push(format!("warm-up failed: {e}")),
        }
        *daemon = Some(handle);
    };
    set_up(&mut daemon, &mut setup_s, &mut errors);

    let mut rounds: Vec<Round> = Vec::new();
    // Bursts of the machine-speed probe, two before each untraced round.
    let mut probe_s = Vec::new();
    let mut rss_mb = 0.0;
    let started = Instant::now();
    let mut round = 0u64;
    while crate::another_pass(
        args,
        started,
        &rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
    ) {
        // Every round after the first is served by a fresh daemon, and more
        // set-ups run while `layers::setup_due` allows.
        if round > 0 {
            set_up(&mut daemon, &mut setup_s, &mut errors);
            while layers::setup_due(&setup_s, started.elapsed().as_secs_f64(), false) {
                set_up(&mut daemon, &mut setup_s, &mut errors);
            }
        }
        if !args.trace {
            probe_s.extend([0; calib::PROBES_PER_PASS].map(|_| calib::burst(nproc)));
        }
        let slot = crate::slot(args, round);
        let traced = args.trace && round % 2 == 1;
        let t = if traced { &tracer } else { &off };
        let addr = daemon.as_ref().expect("a daemon is set up").addr();
        let t0 = Instant::now();
        let per_client: Vec<Vec<Served>> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..nproc as u64)
                .map(|c| {
                    let names = &names;
                    s.spawn(move || client_round(addr, t, args.seed, round, slot, c, names))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let mut served = Vec::new();
        for (c, mut client) in per_client.into_iter().enumerate() {
            let requests = inputs::serve_requests(args.seed, slot, c as u64, client.len(), &names);
            errors.extend(check_repeats(round, c, &mut client, &requests));
            served.extend(client);
        }
        rounds.push(Round {
            wall_s,
            served,
            slot,
            traced,
        });
        if round == 0 {
            // A daemon keeps every cell it served, and each round has a
            // daemon of its own: this is the high-water mark of one set-up
            // serving one round, as in the campaign workloads.
            rss_mb = layers::peak_rss_mb();
        }
        round += 1;
    }
    while layers::setup_due(&setup_s, started.elapsed().as_secs_f64(), true) {
        set_up(&mut daemon, &mut setup_s, &mut errors);
    }
    drop(daemon);

    let all = || rounds.iter().flat_map(|r| &r.served);
    let attempted = all().count() as u64;
    let failed = all().filter(|s| s.failure.is_some()).count() as u64;
    let mut failures = Json::object();
    for kind in ["io", "protocol", "remote", "timeout", "short"] {
        failures.set(kind, all().filter(|s| s.failure == Some(kind)).count());
    }
    // A short report is a wrong output as well as a failed request.
    let short = all().filter(|s| s.failure == Some("short")).count();
    if short > 0 {
        errors.push(format!("{short} served reports miss experiments"));
    }

    // The output check, outside the timed section.  Its in-process
    // artefacts are the ones the traced run's set-up layer metrics describe.
    let check_rep = setup_s.len() as u64;
    let check_root = tracer.open("setup", None, check_rep);
    let data = layers::build_artifacts(&tracer, check_root, check_rep, InputSize::Tiny, false);
    tracer.close(check_root);
    let kept: Vec<&(Vec<CellRequest>, SweepReport)> =
        all().filter_map(|s| s.kept.as_ref()).collect();
    if kept.is_empty() {
        errors.push("no served report was kept for the output check".to_string());
    }
    errors.extend(check_reports(&data, &kept));

    let mut values = Values::default();
    let mut ctx = Json::object();
    if args.trace {
        let spans = tracer.spans();
        layers::setup_metrics(&mut values, &spans, &data);
        values.set("interp.noop_mips", layers::noop_mips(&tracer, &data));
        let cells: Vec<(usize, CampaignSpec)> = (0..nproc as u64)
            .flat_map(|c| inputs::serve_requests(args.seed, 0, c, SERVE_REQUESTS_PER_ROUND, &names))
            .filter(|r| r.repeat.is_none())
            .flat_map(|r| r.cells)
            .filter_map(|cell| {
                let unit = data
                    .iter()
                    .position(|d| d.name.eq_ignore_ascii_case(&cell.workload))?;
                Some((unit, cell.spec()))
            })
            .collect();
        let goldens: Vec<&GoldenRun> = data.iter().map(|d| &d.golden).collect();
        let sample = inputs::sample_experiments(args.seed, &cells, &goldens, SERIAL_SAMPLE);
        layers::serial_pass(&tracer, &mut values, &data, &sample);
        layers::zero(
            &mut values,
            &[
                "sweep.wall_ms",
                "sweep.batches",
                "sweep.steals",
                "sweep.parks",
                "sweep.busy_frac",
                "sweep.idle_ms",
                "sweep.overhead_frac",
                "harness.grid_ms",
                "harness.render_ms",
            ],
        );
        let traced: Vec<&Served> = rounds
            .iter()
            .filter(|r| r.traced)
            .flat_map(|r| &r.served)
            .filter(|s| s.failure.is_none())
            .collect();
        let rtt = |repeat: bool| {
            median(
                &traced
                    .iter()
                    .filter(|s| s.repeat == repeat)
                    .map(|s| s.rtt_ms)
                    .collect::<Vec<_>>(),
            )
        };
        values.set(
            "serve.first_event_ms",
            layers::span_median_ms(&spans, "serve.first_event"),
        );
        values.set(
            "serve.report_ms",
            layers::span_median_ms(&spans, "serve.report"),
        );
        values.set(
            "serve.events_per_req",
            ratio(
                traced.iter().map(|s| s.events).sum::<usize>() as f64,
                traced.len() as f64,
            ),
        );
        values.set(
            "serve.dedup_frac",
            ratio(
                traced.iter().map(|s| s.deduped).sum::<u64>() as f64,
                traced.iter().map(|s| s.cells).sum::<usize>() as f64,
            ),
        );
        values.set("serve.rtt_hit_ms", rtt(true));
        values.set("serve.rtt_miss_ms", rtt(false));
        let untraced = exp_per_s(&median_rounds(&rounds, false));
        values.set(
            "trace.overhead_frac",
            ratio(
                untraced - exp_per_s(&median_rounds(&rounds, true)),
                untraced,
            ),
        );
    } else {
        // Each input slot at its median untraced round, and the round trips
        // of those rounds' requests.
        let typical = median_rounds(&rounds, false);
        let wall_s: f64 = typical.iter().map(|r| r.wall_s).sum();
        let requests = typical.iter().map(|r| r.served.len()).sum::<usize>() as f64;
        let rtt_ms: Vec<f64> = typical
            .iter()
            .flat_map(|r| &r.served)
            .filter(|s| s.failure.is_none())
            .map(|s| s.rtt_ms)
            .collect();
        let rtt_tail = tail(&rtt_ms);
        // Times in reference seconds, rates per reference second.
        let k = calib::scale(&probe_s);
        let makespan = wall_s / typical.len() as f64;
        values.set("setup_s", median(&setup_s) * k);
        values.set("exp_per_s", exp_per_s(&typical) / k);
        values.set("makespan_s", makespan * k);
        values.set("peak_rss_mb", rss_mb);
        values.set("rtt_p50_ms", median(&rtt_ms) * k);
        values.set("rtt_tail_ms", rtt_tail.value * k);
        values.set("req_per_s", requests / wall_s / k);
        calib::context(&mut ctx, k, &probe_s);
        ctx.set("setup_reps_s", setup_s.clone());
        ctx.set("raw_makespan_s", makespan);
        ctx.set("rtt_tail_pct", rtt_tail.pct);
        ctx.set("rtt_tail_beyond", rtt_tail.beyond);
        ctx.set("rtt_samples", rtt_tail.samples);
    }
    ctx.set("n_per_cell", inputs::SERVE_N);
    ctx.set("input_size", InputSize::Tiny.to_string());
    ctx.set("clients", nproc);
    ctx.set("engine_threads", nproc);
    ctx.set("rounds", rounds.len());
    ctx.set(
        "round_walls_s",
        rounds.iter().map(|r| r.wall_s).collect::<Vec<f64>>(),
    );
    ctx.set("requests_per_round_per_client", SERVE_REQUESTS_PER_ROUND);
    ctx.set("cells_per_request", inputs::SERVE_CELLS);
    ctx.set("repeat_share", inputs::serve_repeat_share());
    ctx.set("adaptive_share", 1.0 / inputs::SERVE_ADAPTIVE_EVERY as f64);
    ctx.set("failures", failures);
    RunReport {
        values,
        correct: errors.is_empty(),
        attempted,
        failed,
        errors,
        context: ctx,
        spans: crate::spans_out(args, &tracer),
    }
}
