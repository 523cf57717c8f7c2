//! The closed-form level sum against the walk it replaces.
//!
//! On a nest of depth 3 or more the simulator's walk sums each
//! second-innermost range of at least `MIN_SUMMED` values in closed form
//! instead of visiting every value of it (`an_numa::simulate`).
//! `simulate_summing(.., 1)` sums every range, however short, and
//! `simulate_summing(.., i64::MAX)` none: that per-leaf walk visits
//! every iteration prefix and counts only the innermost loop. All three
//! must return equal `SimStats` — every integer counter of every
//! processor and, since the counts are priced by one function, every
//! time, bit for bit — on:
//!
//! 1. every corpus kernel, at P ∈ {1, 2, 3, 5, 7, 8, 16, 28}, with and
//!    without block transfers, at its default size and at a quarter of
//!    it, and gemm at the paper's N = 400;
//! 2. every distribution of every array of the depth-3 corpus kernels
//!    (552 assignments) at a quarter of their size, P ∈ {3, 8};
//! 3. ≥200 generated depth-3 and depth-4 kernels under pseudo-random
//!    distributions, each compiled as the pipeline would and also
//!    restructured by a pseudo-random (sometimes non-unimodular)
//!    transform, whose Fourier–Motzkin bounds bring skews, several
//!    lower and upper terms and divisors into the sum.
//!
//! Errors must agree too: when one side rejects, so must the other. A
//! count past `u64` is a typed error from both pricings.
//!
//! `an-model` sums level 0 of a depth-2 nest with the same closed form,
//! over the values of the distributed loop a processor executes, where
//! the simulator walks it. `model_stats_summing(.., 1)` sums every such
//! level, however short, and `model_stats` (which walks levels under
//! `MIN_SUMMED_OUTER` values) and `simulate` must agree with it bit for
//! bit on:
//!
//! 4. every distribution of every array of the six depth-2 corpus
//!    kernels (2 532 compiled assignments, with and without block
//!    transfers), at their default size and at 16 times it, at
//!    P ∈ {1, 2, 3, 5, 7, 8, 16, 28};
//! 5. ≥200 generated depth-2 kernels under pseudo-random distributions,
//!    2-D blocked ones included, each compiled as the pipeline would and
//!    restructured by a pseudo-random transform;
//! 6. a source whose class modulus the residue-class collapse this sum
//!    replaced could not take, at a size the walk finishes and at
//!    N = 10⁹, which the sum prices in milliseconds.

use access_normalization::codegen::spmd::{generate_spmd, SpmdOptions};
use access_normalization::codegen::transform::apply_transform;
use access_normalization::linalg::IMatrix;
use access_normalization::model::{model_stats, model_stats_summing, model_stats_traced};
use access_normalization::numa::simulate::simulate_summing;
use access_normalization::numa::{simulate, simulate_traced, MachineConfig, SimError};
use access_normalization::obs::Tracer;
use access_normalization::{compile, fuzz::generated_kernel_at_depth, CompileOptions};

const CORPUS: &[&str] = &[
    "adi",
    "cholesky",
    "correlation",
    "decimate",
    "decimate_messy",
    "fig1",
    "gemm",
    "jacobi2d",
    "jacobi2d_messy",
    "lu",
    "mvt",
    "mvt_messy",
    "seidel2d",
    "syr2k",
    "trmm",
];
const PROCS: &[usize] = &[1, 2, 3, 5, 7, 8, 16, 28];

fn kernel_source(name: &str) -> String {
    let path = format!("{}/examples/kernels/{name}.an", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// splitmix64, the repo's standard reproducible stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Panics unless the sum of every range, the shipped mix of sums and
/// per-leaf counts, and the per-leaf walk agree exactly.
fn assert_same(
    spmd: &access_normalization::codegen::SpmdProgram,
    procs: usize,
    params: &[i64],
    at: &str,
) {
    let machine = MachineConfig::butterfly_gp1000();
    let walked = simulate_summing(spmd, &machine, procs, params, i64::MAX);
    let summed = simulate_summing(spmd, &machine, procs, params, 1);
    assert_eq!(summed, walked, "{at}");
    assert_eq!(simulate(spmd, &machine, procs, params), walked, "{at}");
}

#[test]
fn every_corpus_kernel_sums_exactly() {
    for name in CORPUS {
        let src = kernel_source(name);
        for transfers in [true, false] {
            let opts = CompileOptions {
                spmd: SpmdOptions {
                    block_transfers: transfers,
                },
                ..CompileOptions::default()
            };
            let compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            let full = compiled.program.default_param_values();
            let quarter: Vec<i64> = full.iter().map(|&v| (v / 4).max(1)).collect();
            let mut sizes = vec![full, quarter];
            if *name == "gemm" {
                sizes.push(vec![400]);
            }
            for params in &sizes {
                for &procs in PROCS {
                    let at = format!("{name} P={procs} transfers={transfers} params={params:?}");
                    assert_same(&compiled.spmd, procs, params, &at);
                }
            }
        }
    }
}

/// Every distribution of every array of the depth-3 corpus kernels —
/// the assignments `--autodist` prices, and blocked and 2-D blocked ones
/// besides — at a quarter of the default size, compiled as the pipeline
/// would and priced at P ∈ {3, 8}.
#[test]
fn every_distribution_of_the_deep_corpus_sums_exactly() {
    let dists = [
        "wrapped(0)",
        "wrapped(1)",
        "blocked(0)",
        "blocked(1)",
        "block2d(0, 1)",
        "replicated",
    ];
    let mut priced = 0u32;
    for name in [
        "cholesky",
        "correlation",
        "fig1",
        "gemm",
        "lu",
        "syr2k",
        "trmm",
    ] {
        let src = kernel_source(name);
        let arrays = src.matches(" distribute ").count();
        for pick in 0..dists.len().pow(arrays as u32) {
            let (mut out, mut rest, mut k) = (String::new(), src.as_str(), pick);
            while let Some(at) = rest.find(" distribute ") {
                let end = at + rest[at..].find(';').expect("declaration ends");
                out.push_str(&rest[..at]);
                out.push_str(&format!(" distribute {}", dists[k % dists.len()]));
                k /= dists.len();
                rest = &rest[end..];
            }
            out.push_str(rest);
            // A distribution the compiler rejects is outside the scope.
            let Ok(compiled) = compile(&out, &CompileOptions::default()) else {
                continue;
            };
            let params: Vec<i64> = (compiled.program.default_param_values().iter())
                .map(|&v| (v / 4).max(1))
                .collect();
            for procs in [3, 8] {
                assert_same(
                    &compiled.spmd,
                    procs,
                    &params,
                    &format!("P={procs}:\n{out}"),
                );
            }
            priced += 1;
        }
    }
    assert!(priced >= 500, "only {priced} of 552 assignments compiled");
}

/// A pseudo-random transform of depth `n`: a few elementary row
/// additions, and sometimes a row scaled by 2 (a sub-lattice scan,
/// whose bounds carry divisors).
fn random_transform(seed: u64, n: usize) -> IMatrix {
    let mut t = IMatrix::identity(n);
    let mut z = seed;
    for _ in 0..3 {
        z = mix(z);
        let (i, j) = ((z % n as u64) as usize, ((z >> 8) % n as u64) as usize);
        let k = ((z >> 16) % 5) as i64 - 2;
        if i == j || k == 0 {
            continue;
        }
        for c in 0..n {
            let v = t.get(i, c) + k * t.get(j, c);
            t.set(i, c, v);
        }
    }
    if (z >> 24).is_multiple_of(4) {
        let row = ((z >> 32) % n as u64) as usize;
        for c in 0..n {
            let v = 2 * t.get(row, c);
            t.set(row, c, v);
        }
    }
    t
}

#[test]
fn generated_deep_kernels_sum_exactly() {
    let dists = [
        "wrapped(0)",
        "wrapped(1)",
        "blocked(0)",
        "blocked(1)",
        "block2d(0, 1)",
        "replicated",
    ];
    let (mut compiled_cases, mut transformed_cases) = (0u32, 0u32);
    for case in 0..240u64 {
        let depth = 3 + (case % 2) as usize;
        let mut src = generated_kernel_at_depth(mix(case), depth);
        for k in 0..2u64 {
            let d = dists[(mix(case ^ (k << 32)) % 6) as usize];
            let at = src
                .find("distribute wrapped(")
                .expect("generator emits wrapped");
            let end = at + src[at..].find(')').expect("closing paren") + 1;
            src.replace_range(at..end, &format!("distribute {d}"));
        }
        let procs = PROCS[(mix(!case) % PROCS.len() as u64) as usize];
        if let Ok(compiled) = compile(&src, &CompileOptions::default()) {
            let params = compiled.program.default_param_values();
            assert_same(
                &compiled.spmd,
                procs,
                &params,
                &format!("case {case} P={procs}:\n{src}"),
            );
            compiled_cases += 1;
        }
        let Ok(program) = access_normalization::lang::parse(&src) else {
            continue;
        };
        let t = random_transform(mix(case ^ 0xabc), depth);
        let Ok(tp) = apply_transform(&program, &t) else {
            continue;
        };
        let params = program.default_param_values();
        for transfers in [true, false] {
            let spmd = generate_spmd(
                &tp,
                None,
                &SpmdOptions {
                    block_transfers: transfers,
                },
            );
            let at = format!("case {case} P={procs} T={t:?} transfers={transfers}:\n{src}");
            assert_same(&spmd, procs, &params, &at);
        }
        transformed_cases += 1;
    }
    assert!(compiled_cases >= 200, "only {compiled_cases}/240 compiled");
    assert!(
        transformed_cases >= 200,
        "only {transformed_cases}/240 restructured"
    );
}

/// A count past `u64` is a typed error, not a wrap or a panic, from the
/// level-0 collapse of a depth-2 nest and from the level sum alike, and
/// a count just inside it is exact.
#[test]
fn a_count_past_u64_is_a_typed_error() {
    let machine = MachineConfig::butterfly_gp1000();
    // Depth 2, model-priced (the walk would visit 5·10⁹ rows): every
    // access is local, 2·N²/P of them per processor, N² = 2.5·10¹⁹.
    let flat = "param N = 5000000000; array A[N, N] distribute wrapped(0);
        for i = 0, N - 1 { for j = 0, N - 1 { A[i, j] = A[i, j] + 1.0; } }";
    let compiled = compile(flat, &CompileOptions::default()).unwrap();
    let params = compiled.program.default_param_values();
    let model = |procs| model_stats(&compiled.spmd, &machine, procs, &params);
    for procs in [1, 2] {
        assert_eq!(model(procs), Err(SimError::CountOverflow), "P={procs}");
    }
    let exact = model(4).unwrap();
    for ps in &exact.per_proc {
        assert_eq!(ps.local_accesses, 12_500_000_000_000_000_000);
        assert_eq!(ps.remote_accesses, 0);
    }
    // Their sum over the processors is past `u64` too: exact in `u128`.
    assert_eq!(
        exact.total(|p| p.local_accesses),
        50_000_000_000_000_000_000
    );
    assert_eq!(exact.remote_fraction(), 0.0);
    // Depth 3, both pricings, through the level sum: four outer values
    // dealt round-robin, each 2·N² local accesses, N² = 6.25·10¹⁸.
    let deep = "param N = 2500000000; array A[N, N];
        for t = 0, 3 { for i = 0, N - 1 { for j = 0, N - 1 { A[i, j] = A[i, j] + 1.0; } } }";
    let program = access_normalization::lang::parse(deep).unwrap();
    let tp = apply_transform(&program, &IMatrix::identity(3)).unwrap();
    let spmd = generate_spmd(&tp, None, &SpmdOptions::default());
    let params = program.default_param_values();
    for procs in [1, 2] {
        assert_eq!(
            simulate(&spmd, &machine, procs, &params),
            Err(SimError::CountOverflow),
            "P={procs}"
        );
        assert_eq!(
            model_stats(&spmd, &machine, procs, &params),
            Err(SimError::CountOverflow),
            "P={procs}"
        );
    }
    let exact = simulate(&spmd, &machine, 4, &params).unwrap();
    assert_eq!(model_stats(&spmd, &machine, 4, &params).unwrap(), exact);
    for ps in &exact.per_proc {
        assert_eq!(ps.local_accesses, 12_500_000_000_000_000_000);
        assert_eq!(ps.ops, 6_250_000_000_000_000_000);
        assert_eq!(ps.outer_iterations, 1);
    }
    // A trace counter is a sum over the processors, 5·10¹⁹ here: a typed
    // error, not a clamped count.
    let tracer = Tracer::new();
    assert_eq!(
        simulate_traced(&spmd, &machine, 4, &params, Some(&tracer)),
        Err(SimError::CountOverflow)
    );
    assert_eq!(
        model_stats_traced(&spmd, &machine, 4, &params, Some(&tracer)),
        Err(SimError::CountOverflow)
    );
    // The `anc` CLI: exit 1 and one stderr line, under both pricings.
    let path = std::env::temp_dir().join(format!("anc-count-overflow-{}.an", std::process::id()));
    std::fs::write(&path, flat).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_anc"))
        .args([
            "sweep",
            path.to_str().unwrap(),
            "--procs",
            "1",
            "--price",
            "model",
        ])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("64-bit range"), "{stderr}");
}

/// Panics unless the model's level-0 sum of every range, the model as it
/// ships and the simulator's walk agree exactly.
fn assert_flat_same(
    spmd: &access_normalization::codegen::SpmdProgram,
    procs: usize,
    params: &[i64],
    at: &str,
) {
    let machine = MachineConfig::butterfly_gp1000();
    let walked = simulate(spmd, &machine, procs, params);
    let summed = model_stats_summing(spmd, &machine, procs, params, 1);
    assert_eq!(summed, walked, "{at}");
    assert_eq!(model_stats(spmd, &machine, procs, params), walked, "{at}");
}

/// Every distribution of every array of the depth-2 corpus kernels,
/// compiled with and without block transfers and priced with every
/// parameter at `scale` times its default.
fn flat_corpus_sums_exactly(scale: i64) {
    let dists = [
        "wrapped(0)",
        "wrapped(1)",
        "blocked(0)",
        "blocked(1)",
        "block2d(0, 1)",
        "replicated",
    ];
    let mut priced = 0u32;
    for name in [
        "adi",
        "jacobi2d",
        "jacobi2d_messy",
        "mvt",
        "mvt_messy",
        "seidel2d",
    ] {
        let src = kernel_source(name);
        let arrays = src.matches(" distribute ").count();
        for pick in 0..dists.len().pow(arrays as u32) {
            let (mut out, mut rest, mut k) = (String::new(), src.as_str(), pick);
            while let Some(at) = rest.find(" distribute ") {
                let end = at + rest[at..].find(';').expect("declaration ends");
                out.push_str(&rest[..at]);
                out.push_str(&format!(" distribute {}", dists[k % dists.len()]));
                k /= dists.len();
                rest = &rest[end..];
            }
            out.push_str(rest);
            for transfers in [true, false] {
                let opts = CompileOptions {
                    spmd: SpmdOptions {
                        block_transfers: transfers,
                    },
                    ..CompileOptions::default()
                };
                // A distribution the compiler rejects is outside the scope.
                let Ok(compiled) = compile(&out, &opts) else {
                    continue;
                };
                let params: Vec<i64> = (compiled.program.default_param_values().iter())
                    .map(|&v| scale * v)
                    .collect();
                for &procs in PROCS {
                    let at = format!("P={procs} transfers={transfers} {params:?}:\n{out}");
                    assert_flat_same(&compiled.spmd, procs, &params, &at);
                }
                priced += 1;
            }
        }
    }
    assert!(priced >= 2500, "only {priced} of 2532 compiled");
}

#[test]
fn every_distribution_of_the_flat_corpus_sums_exactly() {
    flat_corpus_sums_exactly(1);
}

/// At 16 times the default size every processor runs hundreds of outer
/// values, which the model sums as it ships.
#[test]
fn every_distribution_of_the_flat_corpus_sums_exactly_at_16x() {
    flat_corpus_sums_exactly(16);
}

/// Generated depth-2 kernels under pseudo-random distributions, 2-D
/// blocked ones (and so 2-D tiled outer assignments) included, compiled
/// as the pipeline would and restructured by a pseudo-random, sometimes
/// non-unimodular transform; each priced at its default size and at a
/// size whose ranges no processor count divides.
#[test]
fn generated_flat_kernels_sum_exactly() {
    let dists = [
        "wrapped(0)",
        "wrapped(1)",
        "blocked(0)",
        "blocked(1)",
        "block2d(0, 1)",
        "replicated",
    ];
    let (mut compiled_cases, mut transformed_cases) = (0u32, 0u32);
    for case in 0..240u64 {
        let mut src = generated_kernel_at_depth(mix(case ^ 0xf1a7), 2);
        for k in 0..2u64 {
            let d = dists[(mix(case ^ (k << 32) ^ 0xf1a7) % 6) as usize];
            let at = src
                .find("distribute wrapped(")
                .expect("generator emits wrapped");
            let end = at + src[at..].find(')').expect("closing paren") + 1;
            src.replace_range(at..end, &format!("distribute {d}"));
        }
        let procs = PROCS[(mix(!case ^ 0xf1a7) % PROCS.len() as u64) as usize];
        let sizes = |default: Vec<i64>| [default, vec![37]];
        if let Ok(compiled) = compile(&src, &CompileOptions::default()) {
            for params in sizes(compiled.program.default_param_values()) {
                let at = format!("case {case} P={procs} {params:?}:\n{src}");
                assert_flat_same(&compiled.spmd, procs, &params, &at);
            }
            compiled_cases += 1;
        }
        let Ok(program) = access_normalization::lang::parse(&src) else {
            continue;
        };
        let t = random_transform(mix(case ^ 0xabc ^ 0xf1a7), 2);
        let Ok(tp) = apply_transform(&program, &t) else {
            continue;
        };
        for transfers in [true, false] {
            let spmd = generate_spmd(
                &tp,
                None,
                &SpmdOptions {
                    block_transfers: transfers,
                },
            );
            for params in sizes(program.default_param_values()) {
                let at = format!(
                    "case {case} P={procs} T={t:?} transfers={transfers} {params:?}:\n{src}"
                );
                assert_flat_same(&spmd, procs, &params, &at);
            }
        }
        transformed_cases += 1;
    }
    assert!(compiled_cases >= 200, "only {compiled_cases}/240 compiled");
    assert!(
        transformed_cases >= 200,
        "only {transformed_cases}/240 restructured"
    );
}

/// A blocked access whose inner coefficient is 1 000: the residue-class
/// collapse this sum replaced needed a modulus of `P · 1 000`, past its
/// cap of 4 096 at P = 8, and walked. The sum prices it exactly at a size
/// the walk finishes, and in milliseconds at N = 10⁹.
#[test]
fn a_modulus_past_the_old_cap_sums_exactly() {
    let src = "param N = 200;
        array A[1000 * N + N] distribute blocked(0);
        array B[N, N] distribute wrapped(0);
        for i = 0, N - 1 { for j = 0, N - 1 {
            B[i, j] = B[i, j] + A[1000 * j + i];
        } }";
    let program = access_normalization::lang::parse(src).unwrap();
    let tp = apply_transform(&program, &IMatrix::identity(2)).unwrap();
    let machine = MachineConfig::butterfly_gp1000();
    for transfers in [true, false] {
        let spmd = generate_spmd(
            &tp,
            None,
            &SpmdOptions {
                block_transfers: transfers,
            },
        );
        for procs in [5, 8, 16] {
            let at = format!("P={procs} transfers={transfers}");
            assert_flat_same(&spmd, procs, &[200], &at);
            let exact = model_stats(&spmd, &machine, procs, &[200]).unwrap();
            assert!(exact.total(|p| p.remote_accesses) > 0, "{at}");
        }
        let start = std::time::Instant::now();
        let huge = model_stats(&spmd, &machine, 8, &[1_000_000_000]).unwrap();
        let took = start.elapsed();
        assert!(took.as_millis() < 10, "N = 10⁹ took {took:?}");
        assert_eq!(
            huge.total(|p| p.ops),
            1_000_000_000_000_000_000u128,
            "every iteration once"
        );
    }
}
