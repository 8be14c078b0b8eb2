//! `rift`: the paper's production step. The default 12×4×8 weak-crust
//! rift model runs through the recovery loop `run_rift_with`, writing a
//! checkpoint after every step. Solve-heavy: CSR smoothing, the coarse
//! solve and solver set-up dominate; Newton-capped steps (5 iterations)
//! sit beside cheap ones.

use crate::layers::Spans;
use crate::reference::{self, RiftRef, Tolerance};
use crate::{Ops, Workload};
use ptatin_core::models::rift::{RiftConfig, RiftModel, RiftStepStats};
use ptatin_core::recovery::{run_rift_with, RunConfig, RunControl, RunOutcome, YieldPoint};
use ptatin_core::NonlinearOutcome;
use std::path::PathBuf;
use std::time::Instant;

/// Committed steps per repetition. On the seeds of
/// [`reference::rift_seed`] these are three Newton-capped steps (5
/// iterations) and one that converges in 2.
pub const STEPS: usize = 4;

pub struct Rift {
    variant: usize,
    steps: usize,
    tol: Tolerance,
}

pub struct Input {
    model: RiftModel,
    dir: PathBuf,
}

pub struct Output {
    steps: Vec<RiftStepStats>,
    velocity_norms: Vec<f64>,
    /// How each single-step `run_rift_with` call ended (`Err` = checkpoint
    /// I/O).
    outcomes: Vec<Result<RunOutcome, String>>,
    points: usize,
    dir: PathBuf,
}

impl Rift {
    pub fn new(seed: u64, smoke: bool) -> Self {
        Self {
            variant: reference::variant(seed),
            steps: if smoke { 1 } else { STEPS },
            tol: Tolerance::nonlinear(RiftConfig::default().nonlinear.rel_tol),
        }
    }

    pub fn config(variant: usize) -> RiftConfig {
        RiftConfig {
            seed: reference::rift_seed(variant),
            ..RiftConfig::default()
        }
    }
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

impl Workload for Rift {
    type Input = Input;
    type Output = Output;

    fn setup(&self) -> Input {
        Input {
            model: RiftModel::new(Self::config(self.variant)),
            dir: crate::work_dir("rift"),
        }
    }

    fn run(&self, input: Input, spans: &mut Spans) -> Output {
        let Input { mut model, dir } = input;
        let mut out = Output {
            steps: Vec::new(),
            velocity_norms: Vec::new(),
            outcomes: Vec::new(),
            points: 0,
            dir,
        };
        let tracing = spans.on();
        // One `run_rift_with` call per step, so the velocity after every
        // step can be checked; each call resumes from `model.step_index`.
        for k in 1..=self.steps {
            let run = RunConfig {
                steps: k,
                checkpoint_every: Some(1),
                checkpoint_dir: Some(out.dir.clone()),
                ..RunConfig::default()
            };
            let t0 = Instant::now();
            let mut t_commit = None;
            let mut hook = |_step: usize, point: YieldPoint| {
                if point == YieldPoint::BeforeCommit {
                    t_commit = Some(Instant::now());
                }
                false
            };
            let ctrl = RunControl {
                yield_now: if tracing { Some(&mut hook) } else { None },
            };
            let report = run_rift_with(&mut model, &run, ctrl);
            if tracing {
                let end = Instant::now();
                let t_commit = t_commit.unwrap_or(end);
                spans.add("core.solve_stokes_s", (t_commit - t0).as_secs_f64());
                spans.add("core.commit_ckpt_s", (end - t_commit).as_secs_f64());
            }
            match report {
                Ok(r) => {
                    out.steps.extend(r.steps);
                    out.outcomes.push(Ok(r.outcome));
                }
                Err(e) => out.outcomes.push(Err(e.to_string())),
            }
            out.velocity_norms.push(norm(&model.velocity));
        }
        out.points = model.points.len();
        out
    }

    fn assess(&self, out: Output, spans: &mut Spans) -> Ops {
        let mut ops = Ops::default();
        for k in 0..self.steps {
            let mut problems = Vec::new();
            match out.outcomes.get(k) {
                Some(Ok(RunOutcome::Completed)) => {}
                Some(Ok(other)) => problems.push(format!("run_rift_with returned {other:?}")),
                Some(Err(e)) => problems.push(format!("checkpoint error: {e}")),
                None => problems.push("step not run".into()),
            }
            match out.steps.get(k) {
                Some(s) => {
                    if s.attempts > 2 {
                        problems.push(format!("needed {} solve attempts", s.attempts));
                    }
                    let got = RiftRef {
                        time: s.time,
                        max_topography: s.max_topography,
                        velocity_norm: out.velocity_norms[k],
                    };
                    problems.extend(reference::check_rift_step(self.variant, k, got, self.tol));
                    println!(
                        "{{\"observed\": {{\"workload\": \"rift\", \"variant\": {}, \"step\": {}, \
                         \"time\": {:?}, \"max_topography\": {:?}, \"velocity_norm\": {:?}}}}}",
                        self.variant,
                        k + 1,
                        s.time,
                        s.max_topography,
                        out.velocity_norms[k]
                    );
                }
                None => problems.push("no committed step".into()),
            }
            ops.record(&format!("rift step {}", k + 1), problems);
        }
        let sum = |f: fn(&RiftStepStats) -> f64| out.steps.iter().map(f).sum::<f64>();
        spans.add("core.newton_its", sum(|s| s.newton_iterations as f64));
        spans.add("core.krylov_its", sum(|s| s.total_krylov as f64));
        spans.add(
            "core.capped_steps",
            sum(|s| f64::from(u8::from(s.outcome == NonlinearOutcome::MaxIterations))),
        );
        spans.add("core.recovery_attempts", sum(|s| (s.attempts - 1) as f64));
        spans.add("mpm.points", out.points as f64);
        spans.add("mpm.points_lost", sum(|s| s.points_lost as f64));
        let bytes: u64 = std::fs::read_dir(&out.dir)
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        spans.add("ckpt.bytes", bytes as f64);
        let _ = std::fs::remove_dir_all(&out.dir);
        // Fails, harmlessly, while another run still has a directory there.
        let _ = out.dir.parent().map(std::fs::remove_dir);
        ops
    }

    fn children(&self) -> &'static [&'static str] {
        &["core.solve_stokes_s", "core.commit_ckpt_s"]
    }
}
