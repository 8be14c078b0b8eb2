//! Per-layer metrics: the names and units the traced run reports, the
//! benchmark's own spans around calls into each layer, and the reduction
//! of the program's existing `ptatin_prof` scopes into layer numbers.

use ptatin_prof::Snapshot;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pass_frac", "fraction"),
];

/// Per-layer metrics (`--trace 1`), in output order. Every traced run
/// reports all of them; a layer a workload does not exercise (or cannot
/// be separated from outside the program on that workload) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Solver setup, from the `StokesSetup` and `setup/*` scopes.
    ("setup.total_s", "s"),
    ("setup.assembly_s", "s"),
    ("setup.rap_s", "s"),
    ("setup.coarse_s", "s"),
    ("setup.lambda_s", "s"),
    ("setup.plan_s", "s"),
    ("setup.calls", "count"),
    // Krylov / multigrid / sparse kernels.
    ("krylov.solve_s", "s"),
    ("mg.pc_applies", "count"),
    ("mg.smooth_s", "s"),
    ("mg.coarse_s", "s"),
    ("mg.transfer_s", "s"),
    ("la.spmv_s", "s"),
    ("la.spmv_calls", "count"),
    ("la.spmv_gflops", "GFLOP/s"),
    // Matrix-free fine-level operator applies.
    ("ops.fine_apply_s", "s"),
    ("ops.fine_apply_calls", "count"),
    ("ops.fine_gflops", "GFLOP/s"),
    ("ops.fine_flops_per_byte", "flop/B-computed"),
    // Spans recorded by the benchmark around production entry points.
    ("core.solve_stokes_s", "s"),
    ("core.commit_step_s", "s"),
    ("scenario.falling_block_s", "s"),
    ("scenario.shear_band_s", "s"),
    ("scenario.solcx_s", "s"),
    ("mpm.locate_build_s", "s"),
    ("mpm.advect_s", "s"),
    ("mpm.relocate_s", "s"),
    ("mpm.population_s", "s"),
    ("mesh.remesh_s", "s"),
    ("core.coefficients_s", "s"),
    ("fem.energy_s", "s"),
    ("ckpt.write_s", "s"),
    ("ckpt.bytes", "B"),
    // Counts.
    ("core.newton_its", "count"),
    ("core.krylov_its", "count"),
    ("core.capped_steps", "count"),
    ("core.recovery_attempts", "count"),
    ("mpm.points", "count"),
    ("mpm.points_relocated", "count"),
    ("mpm.points_lost", "count"),
    ("mpm.points_injected", "count"),
    ("mpm.points_removed", "count"),
    ("mpm.advect_points_per_s", "1/s"),
    // Trace quality.
    ("trace.attributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Spans and counts of one repetition, recorded from the benchmark's own
/// code. Disabled (the untraced repetitions) it never reads the clock.
pub struct Spans {
    on: bool,
    acc: BTreeMap<&'static str, f64>,
    /// Seconds spent in [`Spans::untimed`] work (correctness checks made
    /// between sub-steps), subtracted from the timed section.
    pub excluded: f64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            acc: BTreeMap::new(),
            excluded: 0.0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` (a check inside the timed section) off the clock.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.excluded += t.elapsed().as_secs_f64();
        out
    }

    /// Run `f`, adding its wall time to span `name` when tracing.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// Add `v` to metric `name` (a span in seconds or a count).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.acc.entry(name).or_insert(0.0) += v;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.acc.get(name).copied().unwrap_or(0.0)
    }

    pub fn into_map(self) -> BTreeMap<&'static str, f64> {
        self.acc
    }
}

/// Sum of `incl_seconds`, `calls`, `flops` and `bytes` over the named
/// scopes of a profile snapshot.
#[derive(Default, Clone, Copy)]
struct ScopeSum {
    seconds: f64,
    calls: f64,
    flops: f64,
    bytes: f64,
}

fn scopes(snap: &Snapshot, pick: impl Fn(&str) -> bool) -> ScopeSum {
    let mut s = ScopeSum::default();
    for ev in snap.events.iter().filter(|e| pick(e.name)) {
        s.seconds += ev.incl_seconds;
        s.calls += ev.calls as f64;
        s.flops += ev.flops as f64;
        s.bytes += ev.bytes as f64;
    }
    s
}

/// Raw per-layer totals accumulated over the traced repetitions of a run.
#[derive(Default)]
pub struct LayerTotals {
    reps: usize,
    sums: BTreeMap<&'static str, f64>,
}

/// Matrix-free operator scopes (every `OperatorKind` that applies without
/// an assembled matrix).
const FINE_OPS: &[&str] = &[
    "MatMult_Tensor",
    "MatMult_TensorBatched",
    "MatMult_TensorC",
    "MatMult_MF",
];

impl LayerTotals {
    /// Fold one traced repetition: the program's profile snapshot and the
    /// benchmark's own spans and counts.
    pub fn add_rep(&mut self, snap: &Snapshot, spans: BTreeMap<&'static str, f64>) {
        self.reps += 1;
        let mut put = |k: &'static str, v: f64| *self.sums.entry(k).or_insert(0.0) += v;
        let named = |n: &'static str| scopes(snap, move |e| e == n);
        let setup = named("StokesSetup");
        put("setup.total_s", setup.seconds);
        put("setup.calls", setup.calls);
        put("setup.assembly_s", named("setup/assembly").seconds);
        put("setup.rap_s", named("setup/rap").seconds);
        put("setup.coarse_s", named("setup/coarse").seconds);
        put("setup.lambda_s", named("setup/lambda").seconds);
        put("setup.plan_s", named("setup/plan").seconds);
        put("krylov.solve_s", named("StokesSolve").seconds);
        // One coarse solve per V-cycle: its call count is the number of
        // multigrid preconditioner applications.
        let coarse = named("MGCoarseSolve");
        put("mg.pc_applies", coarse.calls);
        put("mg.coarse_s", coarse.seconds);
        put(
            "mg.smooth_s",
            scopes(snap, |e| e.starts_with("MGSmooth_")).seconds,
        );
        put(
            "mg.transfer_s",
            scopes(snap, |e| e == "MGProlong" || e == "MGRestrict").seconds,
        );
        let spmv = scopes(snap, |e| e == "MatMult" || e == "MatMultTranspose");
        put("la.spmv_s", spmv.seconds);
        put("la.spmv_calls", spmv.calls);
        put("la.spmv_flops", spmv.flops);
        let fine = scopes(snap, |e| FINE_OPS.contains(&e));
        put("ops.fine_apply_s", fine.seconds);
        put("ops.fine_apply_calls", fine.calls);
        put("ops.fine_flops", fine.flops);
        put("ops.fine_bytes", fine.bytes);
        put("ckpt.write_s", named("CheckpointWrite").seconds);
        for (k, v) in spans {
            put(k, v);
        }
    }

    /// Per-repetition layer metrics in [`PER_LAYER`] order. `overhead` is
    /// the traced-over-untraced wall-time ratio minus one, measured by
    /// the caller from interleaved repetitions.
    pub fn report(&self, overhead: f64) -> Vec<(&'static str, &'static str, f64)> {
        let n = self.reps.max(1) as f64;
        let sum = |k: &str| self.sums.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "la.spmv_gflops" => ratio(sum("la.spmv_flops"), sum("la.spmv_s")) * 1e-9,
                    "ops.fine_gflops" => {
                        ratio(sum("ops.fine_flops"), sum("ops.fine_apply_s")) * 1e-9
                    }
                    "ops.fine_flops_per_byte" => {
                        ratio(sum("ops.fine_flops"), sum("ops.fine_bytes"))
                    }
                    "mpm.advect_points_per_s" => {
                        ratio(sum("mpm.points_advected"), sum("mpm.advect_s"))
                    }
                    "trace.attributed_frac" => {
                        ratio(sum("trace.attributed_s"), sum("trace.root_s"))
                    }
                    "trace.overhead_frac" => overhead,
                    // Checkpoint writes are a program scope nested in the
                    // commit span the benchmark records from the yield hook.
                    "core.commit_step_s" => (sum("core.commit_ckpt_s") - sum("ckpt.write_s")) / n,
                    _ => sum(name) / n,
                };
                (name, unit, v)
            })
            .collect()
    }
}
