//! A BLAS-flavored kernel suite (the paper's §8 claim is that access
//! normalization "works well on programs of practical interest such as
//! routines from the BLAS library"). For each kernel: the derived
//! transform, how many subscripts normalized, and the remote-traffic /
//! speedup effect at P = 16 on the GP-1000 model.

use an_bench::verdict;
use an_codegen::{apply_transform, generate_spmd, SpmdOptions};
use an_core::{normalize, NormalizeOptions};
use an_numa::{simulate, MachineConfig};

struct Kernel {
    name: &'static str,
    src: String,
    params: Vec<i64>,
}

fn kernels() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "GEMV  y = A x + y",
            src: "param N = 192;
                  array y[N] distribute wrapped(0);
                  array A[N, N] distribute wrapped(1);
                  array x[N] distribute wrapped(0);
                  for i = 0, N - 1 { for j = 0, N - 1 {
                      y[i] = y[i] + A[i, j] * x[j];
                  } }"
            .into(),
            params: vec![192],
        },
        Kernel {
            name: "GER   A = A + x yT",
            src: "param N = 192;
                  array A[N, N] distribute wrapped(1);
                  array x[N] distribute wrapped(0);
                  array y[N] distribute wrapped(0);
                  for i = 0, N - 1 { for j = 0, N - 1 {
                      A[i, j] = A[i, j] + x[i] * y[j];
                  } }"
            .into(),
            params: vec![192],
        },
        Kernel {
            name: "GEMM  C = C + A B",
            src: an_bench::gemm_source(192),
            params: vec![192],
        },
        Kernel {
            name: "SYRK  C = C + A AT (upper)",
            src: "param N = 128;
                  array C[N, N] distribute wrapped(1);
                  array A[N, N] distribute wrapped(1);
                  for i = 0, N - 1 { for j = i, N - 1 { for k = 0, N - 1 {
                      C[i, j] = C[i, j] + A[i, k] * A[j, k];
                  } } }"
                .into(),
            params: vec![128],
        },
        Kernel {
            name: "SYR2K banded (paper)",
            src: an_bench::syr2k_source(200, 50),
            params: vec![200, 50],
        },
        Kernel {
            name: "Jacobi-like sweep",
            src: "param N = 192;
                  array A[N, N] distribute wrapped(1);
                  array B[N, N] distribute wrapped(1);
                  for i = 1, N - 2 { for j = 1, N - 2 {
                      A[i, j] = B[i - 1, j] + B[i + 1, j] + B[i, j - 1] + B[i, j + 1];
                  } }"
            .into(),
            params: vec![192],
        },
        Kernel {
            name: "FS    x[i] += L x (carried)",
            src: "param N = 160;
                  array x[N] distribute blocked(0);
                  array L[N, N] distribute wrapped(1);
                  for i = 1, N - 1 { for j = 0, i - 1 {
                      x[i] = x[i] + L[i, j] * x[j];
                  } }"
            .into(),
            params: vec![160],
        },
        Kernel {
            name: "TRMV-like y = L x",
            src: "param N = 192;
                  array y[N] distribute wrapped(0);
                  array L[N, N] distribute wrapped(1);
                  array x[N] distribute wrapped(0);
                  for i = 0, N - 1 { for j = 0, i {
                      y[i] = y[i] + L[i, j] * x[j];
                  } }"
            .into(),
            params: vec![192],
        },
    ]
}

fn main() -> std::process::ExitCode {
    let machine = MachineConfig::butterfly_gp1000();
    let procs = 16;
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "kernel", "normalized", "naive rem%", "norm rem%", "naive spd", "norm spd"
    );
    let mut all_improved = true;
    for k in kernels() {
        let program = an_lang::parse(&k.src).expect("kernel parses");
        let norm = normalize(&program, &NormalizeOptions::default()).expect("normalize");
        let identity = an_linalg::IMatrix::identity(program.nest.depth());
        let make = |t: &an_linalg::IMatrix, transfers: bool| {
            let tp = apply_transform(&program, t).expect("transform");
            generate_spmd(
                &tp,
                Some(&norm.dependences),
                &SpmdOptions {
                    block_transfers: transfers,
                },
            )
        };
        let naive = make(&identity, false);
        let normd = make(&norm.transform, true);
        let base = simulate(&naive, &machine, 1, &k.params).unwrap().time_us;
        let sn = simulate(&naive, &machine, procs, &k.params).unwrap();
        let sb = simulate(&normd, &machine, procs, &k.params).unwrap();
        let (spd_n, spd_b) = (base / sn.time_us, base / sb.time_us);
        println!(
            "{:<28} {:>7}/{:<2} {:>11.1}% {:>11.1}% {:>10.2} {:>10.2}",
            k.name,
            norm.normalized_count(),
            norm.subscripts.len(),
            100.0 * sn.remote_fraction(),
            100.0 * sb.remote_fraction(),
            spd_n,
            spd_b
        );
        if spd_b < spd_n {
            all_improved = false;
        }
    }
    verdict(
        "normalization + transfers never lose to the naive distribution at P=16",
        all_improved,
    );
    an_bench::exit_code()
}
