//! `serve_sweep`: a closed batch of sessions submitted to `SimService` at
//! once, then drained.
//!
//! Set-up is `SimService::start`. Every batch gets a fresh service (so a
//! fresh warm cache), and batches repeat until `--seconds` pass. Time to
//! first slice is read from `SimService::subscribe_progress`: submit to
//! the session's first progress sample.

use crate::replay::{probe_move, LayerClock, Replay};
use crate::report::{median, percentile, RunResult, RECORDER_ON};
use crate::stepping::{replay_rng, SideTimings, WorkCounts};
use crate::trace::Traced;
use crate::workload::{
    mix as mix_seed, serve_mix, SERVE_ENTRIES, SERVE_WORKERS, SESSION_STEPS, SLICE_STEPS,
};
use apr_core::SimSession;
use apr_scenarios::ScenarioSpec;
use apr_serve::{JobSpec, ServeConfig, SimService};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Longest a batch may take before its unfinished sessions count as failed.
const BATCH_LIMIT: Duration = Duration::from_secs(90);
/// Service set-ups per run besides the one before each batch.
const EXTRA_SETUPS: usize = 4;
/// Progress polling interval (the resolution of time to first slice).
const POLL: Duration = Duration::from_millis(5);

/// The service sizing: 2 workers × 1 lane, 10-step slices, an admission
/// cap that admits the whole batch plus the warm-up session, and a cache
/// that holds every entry plus the warm-up's.
pub fn service_config(batch: usize) -> ServeConfig {
    ServeConfig {
        lanes_per_worker: 1,
        slice_steps: SLICE_STEPS,
        max_sessions: batch + 1,
        cache_capacity: SERVE_ENTRIES.len() + 1,
        ..ServeConfig::new(SERVE_WORKERS)
    }
}

/// What one batch measured.
#[derive(Debug, Default)]
struct Batch {
    wall_s: f64,
    completed: u64,
    ttfs_ms: Vec<f64>,
    step_ms: Vec<f64>,
    site_updates: u64,
    step_ns: u64,
    preempts: u64,
    cache_hits: u64,
}

/// Submit `mix` to a started service at once and drain it. Failed
/// checks are recorded on `result`.
fn run_batch(service: &SimService, mix: &[ScenarioSpec], result: &mut RunResult) -> Batch {
    let sub = service.subscribe_progress(None);
    let mut batch = Batch::default();
    let t0 = Instant::now();
    let mut submitted: HashMap<u64, (Instant, usize)> = HashMap::new();
    for (i, spec) in mix.iter().enumerate() {
        let at = Instant::now();
        let job = JobSpec {
            scenario: spec.clone(),
            target_steps: SESSION_STEPS,
        };
        match service.submit(job) {
            Ok(id) => {
                submitted.insert(id, (at, i));
            }
            Err(e) => result.fail(1, format!("{}: {e}", spec.name)),
        }
    }
    result.attempted += mix.len() as u64;

    // Drain by polling: a blocking receive would wake this thread for
    // every per-step ledger sample and steal cycles from the workers.
    let mut first_seen: HashMap<u64, f64> = HashMap::new();
    let mut done = 0;
    let mut last = t0;
    let limit = t0 + BATCH_LIMIT;
    while done < submitted.len() && Instant::now() < limit {
        std::thread::sleep(POLL);
        let now = Instant::now();
        while let Some(sample) = sub.try_recv() {
            if let Some(&(at, _)) = submitted.get(&sample.session) {
                first_seen
                    .entry(sample.session)
                    .or_insert_with(|| (now - at).as_secs_f64() * 1e3);
            }
            if sample.steps_per_sec > 0.0 {
                batch.step_ms.push(1e3 / sample.steps_per_sec);
            }
            if sample.completed {
                done += 1;
                last = now;
            }
        }
    }
    batch.wall_s = (last - t0).as_secs_f64();
    if sub.dropped() > 0 {
        let lost = format!("{} progress samples dropped", sub.dropped());
        result.fail(submitted.len() as u64, lost);
    }
    if done < submitted.len() {
        result.fail(
            (submitted.len() - done) as u64,
            format!(
                "{} sessions unfinished after {BATCH_LIMIT:?}",
                submitted.len() - done
            ),
        );
        return batch;
    }
    batch.ttfs_ms = first_seen.into_values().collect();

    // Checks (outside every timed interval): each session reached its
    // target, and sessions of one spec end with byte-identical blobs.
    // Results are fetched one at a time to keep one copy of each blob.
    let mut ids: Vec<(u64, usize)> = submitted.iter().map(|(&id, &(_, i))| (id, i)).collect();
    ids.sort_unstable();
    let mut blobs: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for (id, i) in ids {
        let r = service.wait(id).expect("submitted session exists");
        let name = &mix[i].name;
        if let Some(err) = &r.error {
            result.fail(1, format!("session {id} ({name}) failed: {err}"));
            continue;
        }
        if r.steps != SESSION_STEPS {
            result.fail(
                1,
                format!("session {id} ({name}) stopped at step {}", r.steps),
            );
            continue;
        }
        match blobs.get(&r.scenario) {
            Some(blob) if *blob != r.final_checkpoint => {
                result.fail(
                    1,
                    format!("session {id} ({name}) diverged from its spec's first run"),
                );
                continue;
            }
            Some(_) => {}
            None => {
                blobs.insert(r.scenario, r.final_checkpoint);
            }
        }
        batch.completed += 1;
        batch.site_updates += r.site_updates;
        batch.step_ns += service.session_stats(id).map_or(0, |s| s.step_ns);
    }
    let metrics = service.metrics();
    batch.preempts = metrics.total_preempts;
    batch.cache_hits = metrics.cache_hits;
    batch
}

/// Set-up: start a service and run one warm-up session (a `tube_small`
/// variant outside the mix) through it, so the batch meets a warmed
/// process. Returns the service and its set-up wall time in seconds.
fn start_service(batch: usize, seed: u64) -> (SimService, f64) {
    let mut warmup = ScenarioSpec::tube_small(mix_seed(seed ^ 0x3a3a));
    warmup.name = "warmup".into();
    let t = Instant::now();
    let service = SimService::start(service_config(batch));
    let id = service
        .submit(JobSpec {
            scenario: warmup,
            target_steps: SLICE_STEPS,
        })
        .expect("warm-up session is admitted");
    let warmed = service.wait(id).expect("warm-up session exists");
    let setup = t.elapsed().as_secs_f64();
    assert!(
        warmed.error.is_none(),
        "warm-up session failed: {:?}",
        warmed.error
    );
    (service, setup)
}

/// The end-to-end run: fresh-service batches until `seconds` pass.
pub fn run(seed: u64, seconds: f64) -> RunResult {
    let mix = serve_mix(seed);
    let mut result = RunResult::default();
    let mut setup_s = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        setup_s.push(start_service(mix.len(), seed).1);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut batches = Vec::new();
    let mut recorder_on = false;
    while batches.is_empty() || Instant::now() < deadline {
        let (service, setup) = start_service(mix.len(), seed);
        setup_s.push(setup);
        recorder_on |= apr_telemetry::is_enabled();
        batches.push(run_batch(&service, &mix, &mut result));
        recorder_on |= apr_telemetry::is_enabled();
    }
    if recorder_on {
        result.fail(result.attempted, RECORDER_ON.into());
    }
    // Each metric is computed per batch and reported as the median over
    // batches.
    let med = |f: &dyn Fn(&Batch) -> f64| median(&batches.iter().map(f).collect::<Vec<_>>());
    let pct = |v: &[f64], q: f64| {
        if v.is_empty() {
            f64::NAN
        } else {
            percentile(v, q)
        }
    };
    result.push("step_ms_p50", med(&|b| pct(&b.step_ms, 0.5)), "ms");
    result.push("step_ms_p90", med(&|b| pct(&b.step_ms, 0.9)), "ms");
    result.push(
        "mlups",
        med(&|b| b.site_updates as f64 * 1e3 / b.step_ns as f64),
        "MLUPS",
    );
    result.push(
        "sessions_per_s",
        med(&|b| b.completed as f64 / b.wall_s),
        "1/s",
    );
    result.push("ttfs_ms_p50", med(&|b| pct(&b.ttfs_ms, 0.5)), "ms");
    result.push("ttfs_ms_p90", med(&|b| pct(&b.ttfs_ms, 0.9)), "ms");
    result.push("setup_s", median(&setup_s), "s");
    result.push("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
    result
}

/// The traced run: one batch for the scheduler counts, then, until
/// `seconds` pass, each distinct spec of the mix is built cold,
/// suspended, rebuilt as a shell, resumed and stepped one slice, and the
/// single-window ones are stepped one more slice through the replay.
pub fn run_traced(seed: u64, seconds: f64) -> (RunResult, Traced) {
    let mix = serve_mix(seed);
    let mut result = RunResult::default();
    let (service, _) = start_service(mix.len(), seed);
    let batch = run_batch(&service, &mix, &mut result);
    drop(service);

    let distinct = &mix[..SERVE_ENTRIES.len()];
    let mut side = SideTimings::default();
    let mut clock = LayerClock::default();
    let mut counts = WorkCounts::default();
    let mut rng = replay_rng(seed);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        for spec in distinct {
            let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let cold = spec.build_cold().expect("registry spec builds");
            side.build_cold_ms.push(ms(t));
            let t = Instant::now();
            let blob = cold.suspend();
            side.suspend_ms.push(ms(t));
            side.checkpoint_bytes.push(blob.len() as f64);
            let t = Instant::now();
            let mut shell = spec.build_shell().expect("registry spec builds a shell");
            side.build_shell_ms.push(ms(t));
            let t = Instant::now();
            shell
                .resume(&blob)
                .expect("blob restores into its own recipe");
            side.resume_ms.push(ms(t));
            let t = Instant::now();
            shell.step_n(SLICE_STEPS);
            let slice = ms(t);
            side.slice_ms.push(slice);
            result.attempted += SLICE_STEPS;

            if spec.windows.len() == 1 {
                side.untraced_slice_ms.push(slice);
                let mut eng = spec.build_apr().expect("registry spec builds an engine");
                eng.resume(&blob)
                    .expect("blob restores into its own recipe");
                if round == 0 {
                    counts.add_state(&eng);
                }
                let mut replay = Replay::new(&eng);
                let mut inserted = 0;
                for _ in 0..SLICE_STEPS {
                    inserted += replay.step(&mut eng, &mut rng, &mut clock).inserted as u64;
                }
                if replay.moves == 0 {
                    probe_move(&mut eng, &mut side.probe_moves);
                }
                if round == 0 {
                    counts.window_moves += replay.moves;
                    counts.insertions += inserted;
                }
                if eng.pool.iter().any(|c| !c.is_finite())
                    || eng.fine.storage_f().iter().any(|f| !f.is_finite())
                {
                    result.fail(
                        SLICE_STEPS,
                        format!("{}: non-finite state after replay", spec.name),
                    );
                }
                result.attempted += SLICE_STEPS;
            }
        }
        round += 1;
    }
    let traced = Traced {
        clock,
        counts,
        side,
        preempts: batch.preempts,
        cache_hits: batch.cache_hits,
    };
    (result, traced)
}
