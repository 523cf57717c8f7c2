//! Seed → inputs. The program under test only ever sees the sources
//! generated here: the fifteen pinned corpus kernels, their `param`
//! lines rewritten to the workload's sizes, in an order the seed
//! shuffles anew every round.
//!
//! The seed does not draw the sizes. Every CPU-bound operation of this
//! system costs more at a larger size — search walks outer levels, the
//! verifier enumerates points and falls off a cliff at `max_points`,
//! even compiling a messy twin interprets it at its own size for the
//! differential check — so a seeded size would make the seed decide how
//! much work a run does, and the spread between seeds would drown the
//! change being measured (with sizes drawn from ±25 %, `op_p95_us` of
//! `compile_corpus` spread 31 % between seeds; with fixed sizes 5 %).

/// The pinned corpus: byte copies of `examples/kernels/*.an` taken when
/// the benchmark was defined, so editing an example cannot silently
/// change what the benchmark measures. `depth` is the loop-nest depth,
/// which decides whether model pricing is O(1) in the size (≤ 2) or
/// still walks outer levels (3).
pub const CORPUS: &[(&str, usize, &str)] = &[
    ("adi", 2, include_str!("../corpus/adi.an")),
    ("cholesky", 3, include_str!("../corpus/cholesky.an")),
    ("correlation", 3, include_str!("../corpus/correlation.an")),
    ("decimate", 1, include_str!("../corpus/decimate.an")),
    (
        "decimate_messy",
        1,
        include_str!("../corpus/decimate_messy.an"),
    ),
    ("fig1", 3, include_str!("../corpus/fig1.an")),
    ("gemm", 3, include_str!("../corpus/gemm.an")),
    ("jacobi2d", 2, include_str!("../corpus/jacobi2d.an")),
    (
        "jacobi2d_messy",
        2,
        include_str!("../corpus/jacobi2d_messy.an"),
    ),
    ("lu", 3, include_str!("../corpus/lu.an")),
    ("mvt", 2, include_str!("../corpus/mvt.an")),
    ("mvt_messy", 2, include_str!("../corpus/mvt_messy.an")),
    ("seidel2d", 2, include_str!("../corpus/seidel2d.an")),
    ("syr2k", 3, include_str!("../corpus/syr2k.an")),
    ("trmm", 3, include_str!("../corpus/trmm.an")),
];

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One generated input: a kernel source the program under test sees.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// Row label: the kernel name, with a size tag when the workload
    /// runs a kernel at more than one size.
    pub label: String,
    pub source: String,
}

/// Rewrites every `param NAME = VALUE;` declaration outside comments,
/// replacing VALUE by `f(NAME, VALUE)`.
pub fn rewrite_params(source: &str, mut f: impl FnMut(&str, i64) -> i64) -> String {
    let mut out = String::with_capacity(source.len() + 16);
    for line in source.split_inclusive('\n') {
        let code_end = line.find("//").unwrap_or(line.len());
        let (code, comment) = line.split_at(code_end);
        let mut rest = code;
        while let Some(pos) = find_keyword(rest, "param") {
            out.push_str(&rest[..pos]);
            rest = &rest[pos..];
            let ends = rest
                .find('=')
                .and_then(|eq| rest[eq..].find(';').map(|semi| (eq, eq + semi)));
            let Some((eq, semi)) = ends else { break };
            let name = rest["param".len()..eq].trim();
            match rest[eq + 1..semi].trim().parse::<i64>() {
                Ok(value) => out.push_str(&format!("param {name} = {};", f(name, value))),
                Err(_) => out.push_str(&rest[..=semi]),
            }
            rest = &rest[semi + 1..];
        }
        out.push_str(rest);
        out.push_str(comment);
    }
    out
}

/// Byte offset of `word` in `text` where it stands alone as an
/// identifier.
fn find_keyword(text: &str, word: &str) -> Option<usize> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(rel) = text[from..].find(word) {
        let at = from + rel;
        let before_ok = !text[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !text[at + word.len()..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

/// One kernel with every `param` default multiplied by `scale`. Sizes
/// never drop below 4, the smallest extent every corpus kernel still
/// compiles and verifies at.
pub fn sized_source(source: &str, scale: f64) -> String {
    rewrite_params(source, |_, default| {
        ((default as f64 * scale).round() as i64).max(4)
    })
}

/// The corpus kernels named by `keep` at `scale` times their default
/// sizes, in corpus order (rounds shuffle their own copy of the order).
pub fn corpus_inputs(keep: impl Fn(&str, usize) -> bool, scale: f64) -> Vec<Input> {
    CORPUS
        .iter()
        .filter(|(name, depth, _)| keep(name, *depth))
        .map(|(name, _, source)| Input {
            label: (*name).to_string(),
            source: sized_source(source, scale),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrites_every_param_and_nothing_else() {
        let src =
            "// param X = 1; stays\nparam N1 = 160; param b = 40;\nparams = 3;\narray A[N1];\n";
        let out = rewrite_params(src, |name, v| if name == "b" { v + 1 } else { v * 2 });
        assert_eq!(
            out,
            "// param X = 1; stays\nparam N1 = 320; param b = 41;\nparams = 3;\narray A[N1];\n"
        );
    }

    #[test]
    fn sizes_scale_every_param_of_the_whole_corpus() {
        let default = corpus_inputs(|_, _| true, 1.0);
        assert_eq!(default.len(), CORPUS.len());
        for (input, (_, _, pinned)) in default.iter().zip(CORPUS) {
            assert_eq!(input.source, *pinned, "{}", input.label);
        }
        assert_eq!(
            sized_source("param N = 128; param b = 3;\n", 0.5),
            "param N = 64; param b = 4;\n"
        );
        let deep = corpus_inputs(|_, depth| depth == 3, 1.0);
        assert_eq!(deep.len(), 7);
    }

    #[test]
    fn shuffle_is_a_permutation_fixed_by_the_seed() {
        let mut a: Vec<usize> = (0..15).collect();
        let mut b = a.clone();
        Rng::new(11).shuffle(&mut a);
        Rng::new(11).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
