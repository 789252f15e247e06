//! Seeded inputs.  Every input the benchmark gives the program is a pure
//! function of the `--seed` argument, the input slot it belongs to and, for
//! `serve-mixed`, the client it is sent by.  A run draws `INPUT_SLOTS`
//! inputs and cycles through them, pass by pass (round by round).

use mbfi_bench::harness::HarnessConfig;
use mbfi_core::rng::{Rng, SmallRng, SplitMix64};
use mbfi_core::{
    CampaignSpec, ExperimentSpec, FaultModel, GoldenRun, IntervalMethod, Precision, Technique,
    WinSize,
};
use mbfi_serve::CellRequest;
use mbfi_workloads::InputSize;

/// Experiments per cell of the paper grid (`run_all` defaults to 60; 20
/// makes a pass short enough that a run holds about twenty of them).
pub const PAPER_GRID_N: usize = 20;
/// Experiments per cell of the uniform single-bit grid at Small inputs.
pub const UNIFORM_N: usize = 100;
/// Experiments per fixed-n cell of a served grid.
pub const SERVE_N: usize = 20;
/// Cells per served grid.
pub const SERVE_CELLS: usize = 4;
/// Requests each client sends per closed-loop round: 15 fresh requests,
/// whose 60 cells give each of the 15 workloads four cells, and the 3
/// repeats that bring the repeat share nearest to `serve_repeat_share`.
pub const SERVE_REQUESTS_PER_ROUND: usize = 18;
/// One fresh served cell in this many uses adaptive precision-targeted
/// sampling.  This is an assumption, not a measured mix: no caller of the
/// repository mixes adaptive and fixed-n cells (`run_all` makes every cell
/// adaptive or none).  One cell in eight puts an adaptive cell in about
/// every other four-cell request, and keeps the adaptive cells, which may
/// run up to three times n, from dominating the served work.
pub const SERVE_ADAPTIVE_EVERY: usize = 8;
/// The adaptive target of those cells: rounds of 10 after a first round of
/// 20, stopping at ±10 points or 60 experiments.
pub const SERVE_PRECISION: Precision = Precision {
    target_half_width_pct: 10.0,
    min_experiments: 20,
    max_experiments: 60,
    interval: IntervalMethod::Wilson,
};
/// Inputs a run draws from its seed and cycles through.  Where a fault
/// lands decides how long its experiment runs (a hang runs to 20 times its
/// golden run), so the work of one paper grid varies by a fifth from seed
/// to seed; a run that measures eight of them varies far less.
pub const INPUT_SLOTS: u64 = 8;
/// Hang threshold multiple used everywhere (the harness default).
pub const HANG_FACTOR: u64 = 20;

/// The cell requests `CampaignGrid::request_artifact_grid` makes per
/// workload for `cfg`'s grid, and the distinct cells among them: for each
/// technique, the single-bit cell (Fig. 1), the same-register sweep (Fig. 2:
/// single-bit again plus every max-MBF at win-size 0), the activation row
/// (Fig. 3: max-MBF 30 at every window) and the multi-register grid
/// (Fig. 4/5: single-bit again plus every (max-MBF, window) point).
pub fn artifact_grid_requests(cfg: &HarnessConfig) -> (usize, usize) {
    let mbf = cfg.max_mbf_values().len();
    let windows = cfg.win_size_values().len();
    let techniques = Technique::ALL.len();
    let requested = techniques * (1 + (1 + mbf) + windows + (1 + mbf * windows));
    let distinct = techniques * (1 + mbf + mbf * windows);
    (requested, distinct)
}

/// Share of served requests that repeat an earlier request of the same
/// client, so every cell of it is already in the daemon's cell cache.  It
/// is the overlap in `run_all`'s own requests: the share of the cell
/// requests of the coarse artefact grid that ask again for a cell already
/// requested (12 of 74 per workload).
pub fn serve_repeat_share() -> f64 {
    let (requested, distinct) = artifact_grid_requests(&HarnessConfig::default());
    1.0 - distinct as f64 / requested as f64
}

/// Input streams, so that inputs drawn for different purposes never share
/// random numbers.
#[derive(Debug, Clone, Copy)]
#[repr(u64)]
pub enum Stream {
    PaperGrid = 1,
    Uniform = 2,
    Serve = 3,
    Warmup = 4,
    Check = 5,
    Probe = 6,
}

/// A seed for one use of one stream.
pub fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut mix =
        SplitMix64::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let a = mix.next_u64();
    SplitMix64::seed_from_u64(a ^ index).next_u64()
}

fn rng(seed: u64, stream: Stream, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive(seed, stream, index))
}

/// `k` distinct indices out of `0..population`, in draw order.
pub fn sample_indices(seed: u64, stream: Stream, population: usize, k: usize) -> Vec<usize> {
    let mut rng = rng(seed, stream, 0);
    let mut pool: Vec<usize> = (0..population).collect();
    let k = k.min(population);
    for i in 0..k {
        let j = rng.gen_range(i..population);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// The campaign seed of the paper grid in input slot `slot`.
pub fn paper_grid_seed(seed: u64, slot: u64) -> u64 {
    derive(seed, Stream::PaperGrid, slot)
}

/// The cells of the uniform grid in input slot `slot` over `workloads`
/// prepared units: one single-bit cell per workload and technique, each with
/// its own campaign seed (first targets are drawn uniformly over the
/// candidates).
pub fn uniform_cells(seed: u64, slot: u64, workloads: usize) -> Vec<(usize, CampaignSpec)> {
    let mut rng = rng(seed, Stream::Uniform, slot);
    let mut cells = Vec::with_capacity(workloads * Technique::ALL.len());
    for unit in 0..workloads {
        for technique in Technique::ALL {
            cells.push((
                unit,
                CampaignSpec {
                    technique,
                    model: FaultModel::single_bit(),
                    experiments: UNIFORM_N,
                    seed: rng.next_u64(),
                    hang_factor: HANG_FACTOR,
                    threads: 0,
                },
            ));
        }
    }
    cells
}

/// `k` experiments drawn from `cells` (a prepared-workload index and a
/// campaign spec each): a cell uniformly, then one of its experiment
/// indices uniformly.  Each spec is the one the campaign itself samples for
/// that index, so a serial pass over the draw runs experiments the grid ran.
pub fn sample_experiments(
    seed: u64,
    cells: &[(usize, CampaignSpec)],
    goldens: &[&GoldenRun],
    k: usize,
) -> Vec<(usize, ExperimentSpec)> {
    let mut rng = rng(seed, Stream::Probe, 0);
    (0..k)
        .map(|_| {
            let (unit, spec) = cells[rng.gen_range(0..cells.len())];
            let index = rng.gen_range(0..spec.experiments.max(1) as u64);
            let golden = goldens[unit];
            let exp = ExperimentSpec::sample(
                spec.technique,
                spec.model,
                golden,
                spec.seed,
                index,
                spec.hang_factor,
            );
            (unit, exp)
        })
        .collect()
}

/// One served grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    pub cells: Vec<CellRequest>,
    /// The index of the earlier request of the same client and round that
    /// this one repeats (always a fresh request, never another repeat).
    pub repeat: Option<usize>,
}

/// Fresh cell `k` of a client.  The workload, single- or multi-bit model
/// and adaptive precision go by `k`, so that every 2 × 15 fresh cells give
/// each workload one cell of each kind and the work of a round barely
/// depends on the seed; the workload order, technique, multi-bit point and
/// campaign seed are drawn.
fn serve_cell(rng: &mut SmallRng, workloads: &[String], order: &[usize], k: usize) -> CellRequest {
    let max_mbf = [2u32, 3, 4, 5, 10, 30];
    let win = [
        WinSize::Fixed(0),
        WinSize::Fixed(1),
        WinSize::Fixed(10),
        WinSize::Fixed(100),
        WinSize::Fixed(1000),
    ];
    let technique = Technique::ALL[rng.gen_range(0..Technique::ALL.len())];
    let model = if k.is_multiple_of(2) {
        FaultModel::single_bit()
    } else {
        FaultModel::multi_bit(
            max_mbf[rng.gen_range(0..max_mbf.len())],
            win[rng.gen_range(0..win.len())],
        )
    };
    CellRequest {
        workload: workloads[order[k % order.len()]].clone(),
        size: InputSize::Tiny,
        technique,
        model,
        experiments: SERVE_N,
        seed: rng.next_u64(),
        hang_factor: HANG_FACTOR,
        precision: (k % SERVE_ADAPTIVE_EVERY == SERVE_ADAPTIVE_EVERY - 1)
            .then_some(SERVE_PRECISION),
    }
}

/// The requests client `client` sends in a round of input slot `slot`.  A
/// repeat copies one of the client's earlier fresh requests, which the
/// closed loop has already seen served.  Repeats sit at evenly spread
/// positions, so that `count` requests hold `serve_repeat_share` of `count`
/// repeats, rounded.
pub fn serve_requests(
    seed: u64,
    slot: u64,
    client: u64,
    count: usize,
    workloads: &[String],
) -> Vec<ServeRequest> {
    let mut rng = rng(seed, Stream::Serve, (slot << 16) | client);
    let share = serve_repeat_share();
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut fresh = 0;
    let mut requests: Vec<ServeRequest> = Vec::with_capacity(count);
    for i in 0..count {
        let repeat = ((i + 1) as f64 * share).round() > (i as f64 * share).round();
        let request = if repeat {
            let earlier = rng.gen_range(0..i);
            let original = requests[earlier].repeat.unwrap_or(earlier);
            ServeRequest {
                cells: requests[original].cells.clone(),
                repeat: Some(original),
            }
        } else {
            ServeRequest {
                cells: (0..SERVE_CELLS)
                    .map(|_| {
                        fresh += 1;
                        serve_cell(&mut rng, workloads, &order, fresh - 1)
                    })
                    .collect(),
                repeat: None,
            }
        };
        requests.push(request);
    }
    requests
}

/// The warm-up grid: one single-experiment cell per workload, so the
/// daemon builds every artefact before timing starts.
pub fn warmup_cells(seed: u64, workloads: &[String]) -> Vec<CellRequest> {
    let mut rng = rng(seed, Stream::Warmup, 0);
    workloads
        .iter()
        .map(|w| CellRequest {
            workload: w.clone(),
            size: InputSize::Tiny,
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments: 1,
            seed: rng.next_u64(),
            hang_factor: HANG_FACTOR,
            precision: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        ["qsort", "FFT", "sha"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(paper_grid_seed(7, 2), paper_grid_seed(7, 2));
        assert_eq!(uniform_cells(7, 1, 15), uniform_cells(7, 1, 15));
        assert_eq!(
            serve_requests(7, 0, 1, 40, &names()),
            serve_requests(7, 0, 1, 40, &names())
        );
        assert_eq!(warmup_cells(7, &names()), warmup_cells(7, &names()));
        assert_eq!(
            sample_indices(7, Stream::Check, 930, 8),
            sample_indices(7, Stream::Check, 930, 8)
        );
    }

    #[test]
    fn seeds_and_positions_change_the_inputs() {
        assert_ne!(paper_grid_seed(7, 0), paper_grid_seed(8, 0));
        assert_ne!(paper_grid_seed(7, 0), paper_grid_seed(7, 1));
        assert_ne!(uniform_cells(7, 0, 15), uniform_cells(8, 0, 15));
        assert_ne!(uniform_cells(7, 0, 15), uniform_cells(7, 1, 15));
        assert_ne!(
            serve_requests(7, 0, 0, 10, &names()),
            serve_requests(7, 0, 1, 10, &names())
        );
        assert_ne!(
            serve_requests(7, 0, 0, 10, &names()),
            serve_requests(7, 1, 0, 10, &names())
        );
        assert_ne!(
            serve_requests(7, 0, 0, 10, &names()),
            serve_requests(8, 0, 0, 10, &names())
        );
        assert_ne!(derive(7, Stream::Check, 0), derive(7, Stream::Probe, 0));
    }

    #[test]
    fn uniform_grid_is_single_bit_for_both_techniques() {
        let cells = uniform_cells(3, 0, 15);
        assert_eq!(cells.len(), 30);
        assert!(cells
            .iter()
            .all(|(_, s)| s.model == FaultModel::single_bit() && s.experiments == UNIFORM_N));
        let reads = cells
            .iter()
            .filter(|(_, s)| s.technique == Technique::InjectOnRead)
            .count();
        assert_eq!(reads, 15);
    }

    #[test]
    fn repeats_copy_an_earlier_fresh_request_of_the_client() {
        let requests = serve_requests(11, 0, 0, 1000, &names());
        assert!(requests[0].repeat.is_none());
        let mut repeats = 0;
        for (i, r) in requests.iter().enumerate() {
            if let Some(j) = r.repeat {
                repeats += 1;
                assert!(j < i);
                assert!(requests[j].repeat.is_none());
                assert_eq!(requests[j].cells, r.cells);
            }
        }
        assert_eq!(repeats, (1000.0 * serve_repeat_share()).round() as usize);
        let cells: Vec<&CellRequest> = requests
            .iter()
            .filter(|r| r.repeat.is_none())
            .flat_map(|r| &r.cells)
            .collect();
        assert!(cells.iter().any(|c| c.precision.is_some()));
        assert!(cells.iter().any(|c| c.model.max_mbf > 1));
        assert!(cells
            .iter()
            .any(|c| c.technique == Technique::InjectOnWrite));
    }

    /// The repeat share comes from the request pattern of `run_all`'s
    /// grid: count it on a real `CampaignGrid` over one Tiny workload, each
    /// figure's requests on a grid of their own (no overlap within one
    /// figure) and all of them together on another.
    #[test]
    fn repeat_share_is_the_artifact_grids_request_overlap() {
        use mbfi_bench::harness::{prepare, CampaignGrid};
        let cfg = HarnessConfig {
            workload_filter: Some(vec!["qsort".to_string()]),
            replay: false,
            ..HarnessConfig::default()
        };
        let count = |request: &dyn Fn(&mut CampaignGrid)| {
            let mut grid = CampaignGrid::from_data(&cfg, prepare(&cfg));
            request(&mut grid);
            grid.cell_count()
        };
        let mut requested = count(&|g| g.request_single_bit());
        for t in Technique::ALL {
            requested += count(&|g| g.request_same_register(t));
            requested += count(&|g| g.request_activation(t));
            requested += count(&|g| g.request_multi_register(t));
        }
        let distinct = count(&|g| g.request_artifact_grid());
        assert_eq!(artifact_grid_requests(&cfg), (requested, distinct));
        assert_eq!((requested, distinct), (74, 62));
        assert!((serve_repeat_share() - 12.0 / 74.0).abs() < 1e-12);
    }

    #[test]
    fn a_round_gives_every_workload_the_same_cells() {
        let names: Vec<String> = (0..15).map(|i| format!("w{i}")).collect();
        for seed in [1, 2, 3] {
            let requests = serve_requests(seed, 0, 0, SERVE_REQUESTS_PER_ROUND, &names);
            let repeats = requests.iter().filter(|r| r.repeat.is_some()).count();
            assert_eq!(repeats, 3);
            let fresh: Vec<&CellRequest> = requests
                .iter()
                .filter(|r| r.repeat.is_none())
                .flat_map(|r| &r.cells)
                .collect();
            assert_eq!(fresh.len(), 60);
            for name in &names {
                let of = |single: bool| {
                    fresh
                        .iter()
                        .filter(|c| &c.workload == name && (c.model.max_mbf == 1) == single)
                        .count()
                };
                assert_eq!((of(true), of(false)), (2, 2), "{name}");
            }
            let adaptive = fresh.iter().filter(|c| c.precision.is_some()).count();
            assert_eq!(adaptive, 60 / SERVE_ADAPTIVE_EVERY);
        }
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let sample = sample_indices(5, Stream::Check, 30, 10);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(sample.iter().all(|&i| i < 30));
        assert_eq!(sample_indices(5, Stream::Check, 3, 10).len(), 3);
    }
}
