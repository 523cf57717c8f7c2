//! Batched grid evaluation: price one SPMD program across a grid of
//! (machine profile × processor count × parameter set) in one parallel
//! fan-out.
//!
//! Every grid point is an independent pricing call — the caller passes
//! [`simulate`](crate::simulate()) or the analytic model — so the sweep
//! parallelizes across *points*. Point order, and therefore the report,
//! is deterministic: the grid is machines-major, then processor counts,
//! then parameter sets, and results are collected in grid order
//! regardless of which worker finished first.

use crate::machine::MachineConfig;
use crate::stats::SimStats;
use crate::SimError;
use an_linalg::cache::CacheStats;
use std::time::Instant;

/// The grid of a [`sweep`]: which processor counts and parameter sets to
/// evaluate (machine profiles are a separate argument), and how many
/// worker threads to use.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Processor counts to simulate.
    pub procs: Vec<usize>,
    /// Parameter vectors (one simulation each, per machine × procs).
    pub param_sets: Vec<Vec<i64>>,
    /// Worker threads (`0` = all available parallelism, `1` = serial).
    pub jobs: usize,
    /// Observability sink. The sweep coordinator records a `"sweep"`
    /// span with grid-shape counters; individual grid points run
    /// untraced (worker emission would make event order depend on
    /// scheduling — see the `an-obs` determinism contract).
    pub tracer: Option<std::sync::Arc<an_obs::Tracer>>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            procs: vec![1],
            param_sets: Vec::new(),
            jobs: 0,
            tracer: None,
        }
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Machine profile name.
    pub machine: String,
    /// Processor count.
    pub procs: usize,
    /// Parameter values.
    pub params: Vec<i64>,
    /// Full simulation statistics.
    pub stats: SimStats,
}

/// The result of a [`sweep`]: all grid points (in grid order) plus
/// provenance — worker count, wall-clock time, and the normalization
/// cache counters when the caller compiled through one.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Evaluated points, machines-major then procs then params.
    pub points: Vec<SweepPoint>,
    /// Resolved worker-thread count the sweep ran with.
    pub jobs: usize,
    /// Wall-clock time of the fan-out (µs).
    pub wall_us: u128,
    /// Normalization-cache hit/miss counters, when the SPMD program was
    /// compiled through a cache the caller wants reported.
    pub norm_cache: Option<CacheStats>,
}

impl SweepReport {
    /// The point with the lowest simulated time, if any.
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .min_by(|a, b| a.stats.time_us.total_cmp(&b.stats.time_us))
    }

    /// Renders the report as JSON (aggregate statistics per point;
    /// per-processor detail is omitted).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"wall_us\": {},\n", self.wall_us));
        match &self.norm_cache {
            Some(c) => out.push_str(&format!(
                "  \"norm_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}},\n",
                c.hits,
                c.misses,
                c.hit_rate()
            )),
            None => out.push_str("  \"norm_cache\": null,\n"),
        }
        out.push_str("  \"points\": [\n");
        for (i, pt) in self.points.iter().enumerate() {
            let params = pt
                .params
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"machine\": \"{}\", \"procs\": {}, \"params\": [{}], \
                 \"time_us\": {:.3}, \"remote_fraction\": {:.6}, \"local\": {}, \
                 \"remote\": {}, \"messages\": {}, \"transfer_bytes\": {}, \
                 \"imbalance\": {:.4}}}{}\n",
                an_obs::json_escape(&pt.machine),
                pt.procs,
                params,
                pt.stats.time_us,
                pt.stats.remote_fraction(),
                pt.stats.total(|p| p.local_accesses),
                pt.stats.total(|p| p.remote_accesses),
                pt.stats.total(|p| p.messages),
                pt.stats.total(|p| p.transfer_bytes),
                pt.stats.imbalance(),
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Lays out the (machine × procs × params) grid, prices every point with
/// `price` on `cfg.jobs` workers, and assembles the report in grid
/// order.
///
/// # Errors
///
/// The first failing grid point's [`SimError`], in grid order —
/// independent of worker scheduling; with a tracer also
/// [`SimError::CountOverflow`] when a point's `sweep.*` counter leaves
/// `u64`.
pub fn sweep<F>(
    machines: &[MachineConfig],
    cfg: &SweepConfig,
    price: F,
) -> Result<SweepReport, SimError>
where
    F: Fn(&MachineConfig, usize, &[i64]) -> Result<SimStats, SimError> + Sync,
{
    let grid: Vec<(usize, usize, usize)> = (0..machines.len())
        .flat_map(|mi| {
            cfg.procs
                .iter()
                .flat_map(move |&procs| (0..cfg.param_sets.len()).map(move |pi| (mi, procs, pi)))
        })
        .collect();
    let tracer = cfg.tracer.as_deref();
    let _span = tracer.map(|t| t.span("sweep"));
    if let Some(t) = tracer {
        t.emit(an_obs::EventKind::Counter {
            name: "sweep.grid_points".into(),
            value: grid.len() as u64,
        });
    }
    let start = Instant::now();
    let results = an_par::par_map(&grid, cfg.jobs, |&(mi, procs, pi)| {
        price(&machines[mi], procs, &cfg.param_sets[pi]).map(|stats| SweepPoint {
            machine: machines[mi].name.clone(),
            procs,
            params: cfg.param_sets[pi].clone(),
            stats,
        })
    });
    let mut points = Vec::with_capacity(results.len());
    for r in results {
        points.push(r?);
    }
    if let Some(t) = tracer {
        let m = t.metrics();
        m.add("sweep.points", points.len() as u64);
        for pt in &points {
            m.add("sweep.messages", pt.stats.counter(|p| p.messages)?);
            m.add(
                "sweep.transfer_bytes",
                pt.stats.counter(|p| p.transfer_bytes)?,
            );
        }
    }
    Ok(SweepReport {
        points,
        jobs: an_par::resolve_jobs(cfg.jobs),
        wall_us: start.elapsed().as_micros(),
        norm_cache: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate;
    use an_codegen::spmd::{generate_spmd, SpmdOptions, SpmdProgram};
    use an_codegen::transform::apply_transform;
    use an_core::{normalize, NormalizeOptions};

    /// [`sweep`] priced by the simulator.
    fn simulated(
        spmd: &SpmdProgram,
        machines: &[MachineConfig],
        cfg: &SweepConfig,
    ) -> Result<SweepReport, SimError> {
        sweep(machines, cfg, |m, procs, params| {
            simulate(spmd, m, procs, params)
        })
    }

    fn gemm_spmd() -> SpmdProgram {
        let p = an_lang::parse(
            "param N = 8;
             array C[N, N] distribute wrapped(1);
             array A[N, N] distribute wrapped(1);
             array B[N, N] distribute wrapped(1);
             for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
                 C[i, j] = C[i, j] + A[i, k] * B[k, j];
             } } }",
        )
        .unwrap();
        let r = normalize(&p, &NormalizeOptions::default()).unwrap();
        let tp = apply_transform(&p, &r.transform).unwrap();
        generate_spmd(&tp, Some(&r.dependences), &SpmdOptions::default())
    }

    #[test]
    fn grid_order_and_values_match_direct_simulation() {
        let spmd = gemm_spmd();
        let machines = [
            MachineConfig::butterfly_gp1000(),
            MachineConfig::ipsc_i860(),
        ];
        let cfg = SweepConfig {
            procs: vec![1, 2, 4],
            param_sets: vec![vec![8], vec![6]],
            jobs: 0,
            tracer: None,
        };
        let report = simulated(&spmd, &machines, &cfg).unwrap();
        assert_eq!(report.points.len(), 2 * 3 * 2);
        // Machines-major, then procs, then params.
        assert_eq!(report.points[0].machine, machines[0].name);
        assert_eq!(report.points[0].procs, 1);
        assert_eq!(report.points[0].params, vec![8]);
        assert_eq!(report.points[1].params, vec![6]);
        assert_eq!(report.points[6].machine, machines[1].name);
        for pt in &report.points {
            let mach = machines.iter().find(|m| m.name == pt.machine).unwrap();
            let direct = simulate(&spmd, mach, pt.procs, &pt.params).unwrap();
            assert_eq!(pt.stats, direct);
        }
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        let spmd = gemm_spmd();
        let machines = [MachineConfig::butterfly_gp1000()];
        let mk = |jobs| SweepConfig {
            procs: vec![1, 2, 3, 4, 5, 6],
            param_sets: vec![vec![8]],
            jobs,
            tracer: None,
        };
        let serial = simulated(&spmd, &machines, &mk(1)).unwrap();
        let par = simulated(&spmd, &machines, &mk(0)).unwrap();
        assert_eq!(serial.points, par.points);
    }

    #[test]
    fn best_point_and_json() {
        let spmd = gemm_spmd();
        let machines = [MachineConfig::butterfly_gp1000()];
        let cfg = SweepConfig {
            procs: vec![1, 4],
            param_sets: vec![vec![8]],
            jobs: 1,
            tracer: None,
        };
        let mut report = simulated(&spmd, &machines, &cfg).unwrap();
        report.norm_cache = Some(CacheStats { hits: 3, misses: 1 });
        let best = report.best().unwrap();
        assert_eq!(best.procs, 4, "4 processors should beat 1 on GEMM");
        let json = report.to_json();
        assert!(json.contains("\"points\": ["));
        assert!(json.contains("\"procs\": 4"));
        assert!(json.contains("\"hits\": 3"));
        assert!(json.contains("\"hit_rate\": 0.7500"));
    }

    #[test]
    fn empty_grid_is_empty_report() {
        let spmd = gemm_spmd();
        let report = simulated(&spmd, &[], &SweepConfig::default()).unwrap();
        assert!(report.points.is_empty());
        assert!(report.best().is_none());
        assert!(report.to_json().contains("\"norm_cache\": null"));
    }
}
