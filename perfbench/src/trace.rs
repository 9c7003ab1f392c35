//! Per-layer metrics of a traced run.

use crate::replay::{Layer, LayerClock};
use crate::report::{median, RunResult};
use crate::stepping::{SideTimings, WorkCounts};
use crate::workload::SLICE_STEPS;

/// Everything a traced run measured.
pub struct Traced {
    /// Replayed-step layer times.
    pub clock: LayerClock,
    /// Work counts that repeat exactly for one seed.
    pub counts: WorkCounts,
    /// Build, checkpoint and slice timings.
    pub side: SideTimings,
    /// Scheduler preemptions in a `serve_sweep` batch (0 elsewhere).
    pub preempts: u64,
    /// Warm-cache hits in a `serve_sweep` batch (0 elsewhere).
    pub cache_hits: u64,
}

fn per_unit(clock: &LayerClock, layer: Layer, scale: f64) -> f64 {
    clock.ns(layer) as f64 / clock.work(layer) as f64 / scale
}

fn per_call(clock: &LayerClock, layer: Layer, scale: f64) -> f64 {
    clock.ns(layer) as f64 / clock.calls(layer) as f64 / scale
}

impl Traced {
    /// Append every per-layer metric to `r`.
    pub fn report(&self, r: &mut RunResult) {
        let c = &self.clock;
        r.push(
            "ibm.spread.ns_per_vertex",
            per_unit(c, Layer::Spread, 1.0),
            "ns",
        );
        r.push(
            "ibm.spread.us_per_call",
            per_call(c, Layer::Spread, 1e3),
            "us",
        );
        r.push(
            "ibm.interpolate.ns_per_vertex",
            per_unit(c, Layer::Interpolate, 1.0),
            "ns",
        );
        r.push(
            "membrane.forces.ns_per_vertex",
            per_unit(c, Layer::Membrane, 1.0),
            "ns",
        );
        r.push(
            "cells.contact.ns_per_vertex",
            per_unit(c, Layer::Contact, 1.0),
            "ns",
        );
        r.push(
            "lattice.fine_collide.ns_per_site",
            per_unit(c, Layer::FineCollide, 1.0),
            "ns",
        );
        r.push(
            "lattice.fine_stream.ns_per_site",
            per_unit(c, Layer::FineStream, 1.0),
            "ns",
        );
        r.push(
            "lattice.coarse_step.ns_per_site",
            per_unit(c, Layer::CoarseStep, 1.0),
            "ns",
        );
        r.push(
            "coupling.snapshot.ns_per_shell_node",
            per_unit(c, Layer::Snapshot, 1.0),
            "ns",
        );
        r.push(
            "coupling.impose_shell.ns_per_shell_node",
            per_unit(c, Layer::ImposeShell, 1.0),
            "ns",
        );
        r.push(
            "coupling.restrict.us_per_call",
            per_call(c, Layer::Restrict, 1e3),
            "us",
        );
        r.push(
            "observe.ledger.ns_per_site",
            per_unit(c, Layer::Ledger, 1.0),
            "ns",
        );
        let moves = if c.calls(Layer::Move) > 0 {
            c
        } else {
            &self.side.probe_moves
        };
        r.push(
            "window.move.ms_per_move",
            per_call(moves, Layer::Move, 1e6),
            "ms",
        );
        r.push(
            "window.maintenance.ms_per_sweep",
            per_call(c, Layer::Maintenance, 1e6),
            "ms",
        );
        let s = &self.side;
        r.push("guard.suspend.ms", median(&s.suspend_ms), "ms");
        r.push("guard.resume.ms", median(&s.resume_ms), "ms");
        r.push(
            "guard.checkpoint_bytes",
            median(&s.checkpoint_bytes),
            "bytes",
        );
        r.push("scenarios.build_cold.ms", median(&s.build_cold_ms), "ms");
        r.push("scenarios.build_shell.ms", median(&s.build_shell_ms), "ms");
        r.push("serve.slice_ms", median(&s.slice_ms), "ms");

        let step_ns: u64 = c.step_ns.iter().sum();
        for layer in Layer::ALL {
            let name = format!("{}.share", layer.name());
            r.push(&name, c.ns(layer) as f64 / step_ns as f64, "ratio");
        }

        let n = &self.counts;
        r.push("count.coarse_sites", n.coarse_sites as f64, "count");
        r.push("count.fine_sites", n.fine_sites as f64, "count");
        r.push("count.shell_nodes", n.shell_nodes as f64, "count");
        r.push("count.cells", n.cells as f64, "count");
        r.push("count.vertices", n.vertices as f64, "count");
        r.push("count.window_moves", n.window_moves as f64, "count");
        r.push("count.insertions", n.insertions as f64, "count");
        r.push("count.preempts", self.preempts as f64, "count");
        r.push("count.cache_hits", self.cache_hits as f64, "count");

        r.push(
            "trace.coverage",
            c.layer_ns() as f64 / step_ns as f64,
            "ratio",
        );
        // Replayed steps summed per slice, against untraced slices of the
        // same engines.
        let traced: Vec<f64> = c
            .step_ns
            .chunks_exact(SLICE_STEPS as usize)
            .map(|chunk| chunk.iter().sum::<u64>() as f64 / 1e6)
            .collect();
        r.push(
            "trace.step_ratio",
            median(&traced) / median(&s.untraced_slice_ms),
            "ratio",
        );
    }
}
