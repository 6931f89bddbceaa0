//! Tape-free inference kernels.
//!
//! The autograd tape in [`crate::graph`] records an `Op` node (and clones
//! a tensor) for every primitive, which is what training needs and
//! exactly what inference does not: a forward-only pass through the RAAL
//! model allocates dozens of small tensors per plan just to throw them
//! away. The kernels here compute the same math without recording
//! anything, and use arithmetic the tape deliberately avoids so a single
//! prediction runs several times faster than the reference forward pass:
//!
//! * [`matmul_into`] dispatches at runtime to a register-tiled AVX2+FMA
//!   microkernel on x86-64 (scalar loops elsewhere), and both skip zero
//!   left-hand entries, which leaves results for finite weights unchanged
//!   (see [`matmul_into`]);
//! * the LSTM gate activations go through [`fast_exp`], a branch-free
//!   Cephes-style polynomial `exp` that the slice kernels evaluate eight
//!   lanes at a time with AVX intrinsics, bit-identical to the scalar
//!   function.
//!
//! Per-element accumulation *order* still matches the corresponding
//! graph ops, so the only divergence from the tape is FMA contraction
//! and the polynomial `exp` (each ~1e-7 relative). End-to-end agreement
//! within 1e-5 relative error is the property-tested contract
//! (`crates/core/tests/prop_infer.rs`); the tape path remains the exact
//! IEEE-ordered reference used by training.
//!
//! Scratch space comes from an [`InferArena`], a free-list of `Vec<f32>`
//! buffers that callers `take` and `give` back; a steady-state prediction
//! loop performs no heap allocation at all.

use crate::layers::Activation;

pub mod quant;

/// A recycling pool of `f32` scratch buffers for tape-free inference.
///
/// `take(len)` hands out a zeroed buffer of the requested length, reusing
/// a previously returned allocation when one is available (capacity is
/// kept across uses, so a steady-state inference loop stops allocating
/// after the first pass). Buffers are returned with [`InferArena::give`];
/// forgetting to return one is not an error, it just costs a future
/// allocation.
///
/// The arena keeps allocation statistics ([`InferArena::stats`]) so
/// callers — the serving layer in particular — can assert that a warmed
/// loop has genuinely stopped touching the heap.
#[derive(Debug, Default)]
pub struct InferArena {
    free: Vec<Vec<f32>>,
    takes: u64,
    fresh_allocs: u64,
    high_water_len: usize,
}

/// Allocation statistics of an [`InferArena`], read via
/// [`InferArena::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total number of `take` calls.
    pub takes: u64,
    /// `take` calls that had to touch the heap (empty free list, or a
    /// pooled buffer whose capacity was below the requested length).
    pub fresh_allocs: u64,
    /// Largest buffer length ever requested — the scratch high-water mark.
    pub high_water_len: usize,
    /// Buffers currently sitting in the free list.
    pub pooled: usize,
}

/// Upper bound on pooled buffers, so a pathological caller cannot grow
/// the free list without bound.
const MAX_POOLED: usize = 64;

impl InferArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zero-filled buffer of length `len`.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.takes += 1;
        self.high_water_len = self.high_water_len.max(len);
        match self.free.pop() {
            Some(mut buf) => {
                if buf.capacity() < len {
                    self.note_fresh_alloc();
                }
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.note_fresh_alloc();
                vec![0.0; len]
            }
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        if self.free.len() < MAX_POOLED {
            // HOT-ALLOC: the free-list grows to at most MAX_POOLED slots
            // during warmup and then reuses them; steady state reclaims
            // buffers without touching the allocator.
            self.free.push(buf);
        }
    }

    /// Current allocation statistics.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            takes: self.takes,
            fresh_allocs: self.fresh_allocs,
            high_water_len: self.high_water_len,
            pooled: self.free.len(),
        }
    }

    fn note_fresh_alloc(&mut self) {
        self.fresh_allocs += 1;
        telemetry::count("infer.arena.alloc", 1);
    }
}

/// `out = a @ b` for row-major `a` (`m x k`) and `b` (`k x n`).
///
/// Each output element accumulates over `k` in the same order as
/// [`crate::tensor::Tensor::matmul`]; on CPUs with AVX2+FMA (detected at
/// runtime) the products are contracted with fused multiply-adds, so the
/// result can differ from the tape in the last bits (~1e-7 relative).
/// `out` must have length `m * n`; it is overwritten.
///
/// Zero entries of `a` (either sign) are skipped: their `0 * b` terms
/// are never added. For finite weights that changes nothing, because
/// adding `±0` to an accumulator returns it unchanged unless the
/// accumulator is `−0`, and an accumulator that starts at `+0` only
/// becomes `−0` when a fused product underflows to zero. So skipping
/// differs from the dense sum only for non-finite weights (`0 * ∞` is
/// NaN) and, in that underflow case, in the sign of a zero. Sparse
/// left-hand rows — the one-hot and structure blocks of an encoded
/// plan, a zero LSTM state — cost only their non-zero entries.
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k, "matmul_into lhs length");
    debug_assert_eq!(b.len(), k * n, "matmul_into rhs length");
    debug_assert_eq!(out.len(), m * n, "matmul_into out length");
    // Aggregates into a histogram only; a single relaxed load when
    // telemetry is off, so the hot path stays unperturbed.
    let _k = telemetry::kernel_span("nn.matmul");
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_fma_available() {
        // SAFETY: AVX2+FMA support was verified by the runtime probe on
        // the line above. The length preconditions (`a.len() == m*k`,
        // `b.len() == k*n`, `out.len() == m*n`) are this function's own
        // documented contract, debug-asserted at entry and re-asserted
        // inside the kernel. No alignment precondition exists: the
        // kernel uses unaligned loads/stores throughout.
        unsafe { x86::matmul_into(a, m, k, b, n, out) };
        return;
    }
    matmul_into_scalar(a, m, k, b, n, out);
}

/// Portable i-k-j matmul, accumulating exactly like
/// [`crate::tensor::Tensor::matmul`] apart from the skipped zero terms
/// (see [`matmul_into`]).
fn matmul_into_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    out.fill(0.0);
    for i in 0..m {
        // PANIC-FREE: i < m and kk < k by loop bounds, so every range
        // below is within the documented (debug-asserted) lengths
        // a = m*k, b = k*n, out = m*n; violating that contract panics by
        // design rather than reading out of bounds.
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Plain in-order dot product (matches a `m x 1` matmul's accumulation).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// In-place `out += alpha * x`.
#[inline]
pub fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len(), "axpy length mismatch");
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o += alpha * v;
    }
}

/// Numerically stable in-place softmax over a slice, with the same
/// max-shift / exp / running-sum / divide order as
/// [`crate::tensor::Tensor::softmax_rows`]. Uses libm `exp` (attention
/// score vectors are short, so exactness is cheap here).
pub fn softmax_inplace(xs: &mut [f32]) {
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        // PANIC-FREE: f32 division cannot panic (0/0 yields NaN, not a
        // trap); sum >= 1 whenever xs is non-empty since exp(0) = 1 for
        // the max element.
        *x /= sum;
    }
}

/// Logistic sigmoid, identical to the graph op's formula (libm `exp`).
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Branch-free polynomial `exp` (the Cephes `expf` scheme): reduce to
/// `exp(x) = 2^n * exp(f)` with `|f| <= ln(2)/2`, evaluate a degree-5
/// minimax polynomial for `exp(f)`, and rebuild `2^n` with exponent bit
/// arithmetic. Rounding to the nearest integer uses the `+1.5*2^23`
/// trick instead of `round()` (a libm call below SSE4.1), so the whole
/// function is straight-line float ops, which the AVX2 slice kernels
/// repeat eight lanes at a time. Relative error is ~2e-7; the input is
/// clamped to ±87.34, so the result saturates instead of overflowing.
#[inline(always)]
pub fn fast_exp(x: f32) -> f32 {
    let x = x.clamp(-EXP_CLAMP, EXP_CLAMP);
    let n = (x * std::f32::consts::LOG2_E + EXP_RND) - EXP_RND;
    let f = (x - n * LN2_HI) - n * LN2_LO;
    let [c0, rest @ ..] = EXP_POLY;
    let mut p = c0;
    for c in rest {
        p = p * f + c;
    }
    let r = (p * f * f + f) + 1.0;
    let scale = f32::from_bits(((n as i32 + 127) as u32) << 23);
    r * scale
}

// Constants of [`fast_exp`], shared with its 8-lane twin
// `x86::fast_exp8` so the two cannot drift apart.
/// Input clamp: `exp(±87.34)` stays finite and normal.
const EXP_CLAMP: f32 = 87.336_54;
/// `ln(2)` split hi/lo so `x - n*ln2` stays accurate (Cephes constants).
#[allow(clippy::excessive_precision)] // Cephes constant kept verbatim
const LN2_HI: f32 = 0.693_359_375;
#[allow(clippy::excessive_precision)] // Cephes constant kept verbatim
const LN2_LO: f32 = -2.121_944_4e-4;
/// 1.5 * 2^23: adding then subtracting rounds to the nearest integer.
const EXP_RND: f32 = 12_582_912.0;
/// Degree-5 minimax polynomial for `exp(f)`, highest power first.
#[allow(clippy::excessive_precision)] // Cephes constants kept verbatim
const EXP_POLY: [f32; 6] = [
    1.987_569_15e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    5.000_000_2e-1,
];

/// Sigmoid via [`fast_exp`] (~1e-7 absolute error).
#[inline(always)]
pub fn fast_sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(-x))
}

/// Tanh via [`fast_exp`] (~1e-7 absolute error).
#[inline(always)]
pub fn fast_tanh(x: f32) -> f32 {
    let e = fast_exp(2.0 * x);
    // PANIC-FREE: f32 division cannot panic; e >= 0, so the denominator
    // is at least 1.
    (e - 1.0) / (e + 1.0)
}

/// In-place sigmoid over a slice using [`fast_sigmoid`], 8-wide under
/// AVX2 where available; every element is bit-identical to
/// [`fast_sigmoid`] either way.
pub fn sigmoid_slice(xs: &mut [f32]) {
    let _k = telemetry::kernel_span("nn.sigmoid");
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_fma_available() {
        // SAFETY: AVX2+FMA support was verified by the runtime probe on
        // the line above — the only precondition; the kernel's loads and
        // stores stay inside `xs` by construction.
        unsafe { x86::sigmoid_slice(xs) };
        return;
    }
    for x in xs.iter_mut() {
        *x = fast_sigmoid(*x);
    }
}

/// In-place tanh over a slice using [`fast_tanh`], 8-wide under AVX2
/// where available; every element is bit-identical to [`fast_tanh`]
/// either way.
pub fn tanh_slice(xs: &mut [f32]) {
    let _k = telemetry::kernel_span("nn.tanh");
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_fma_available() {
        // SAFETY: AVX2+FMA support was verified by the runtime probe on
        // the line above — the only precondition; the kernel's loads and
        // stores stay inside `xs` by construction.
        unsafe { x86::tanh_slice(xs) };
        return;
    }
    for x in xs.iter_mut() {
        *x = fast_tanh(*x);
    }
}

/// Applies an activation in place. Relu and Identity are exact; Sigmoid
/// and Tanh go through the fast polynomial kernels (~1e-7 absolute).
pub fn activate(xs: &mut [f32], act: Activation) {
    match act {
        Activation::Identity => {}
        Activation::Relu => {
            for x in xs.iter_mut() {
                *x = x.max(0.0);
            }
        }
        Activation::Sigmoid => sigmoid_slice(xs),
        Activation::Tanh => tanh_slice(xs),
    }
}

/// x86-64 AVX2+FMA variants of the hot kernels, dispatched at runtime.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m256, _mm256_add_epi32, _mm256_add_ps, _mm256_castsi256_ps, _mm256_cvttps_epi32,
        _mm256_div_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps,
        _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps, _mm256_slli_epi32,
        _mm256_storeu_ps, _mm256_sub_ps, _mm256_xor_ps,
    };
    use std::f32::consts::LOG2_E;

    /// Whether this CPU has AVX2 and FMA (`std` caches the CPUID probe).
    ///
    /// Always `false` under Miri (the interpreter cannot execute vendor
    /// intrinsics) and under the `force-scalar` feature, which pins the
    /// portable kernels for sanitizer and differential-testing runs.
    #[inline]
    pub fn avx2_fma_available() -> bool {
        if cfg!(miri) || cfg!(feature = "force-scalar") {
            return false;
        }
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// Register-tiled matmul microkernel: 64 output columns live in
    /// eight YMM accumulators across the whole `k` loop, so the only
    /// streaming traffic is the weight matrix itself. Per-element
    /// accumulation order equals the scalar kernel's, zero left-hand
    /// entries are skipped the same way; only FMA contraction differs.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (callers check
    /// [`avx2_fma_available`] first), and the lengths must satisfy
    /// `a.len() == m*k`, `b.len() == k*n` and `out.len() == m*n` —
    /// every raw offset below (`bp.add(kk*n + j)`, `o.add(j)`) stays in
    /// bounds exactly when those hold, which this function re-asserts in
    /// debug builds. There is **no alignment precondition**: all vector
    /// memory traffic uses `_mm256_loadu_ps`/`_mm256_storeu_ps`, which
    /// accept arbitrary addresses.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k, "matmul_into lhs length");
        debug_assert_eq!(b.len(), k * n, "matmul_into rhs length");
        debug_assert_eq!(out.len(), m * n, "matmul_into out length");
        let bp = b.as_ptr();
        for i in 0..m {
            // PANIC-FREE: i < m, so both row ranges sit inside the
            // documented a = m*k / out = m*n length contract re-asserted
            // above; a violated contract panics here instead of feeding
            // the raw-pointer loops below.
            let a_row = &a[i * k..(i + 1) * k];
            let o = out[i * n..(i + 1) * n].as_mut_ptr();
            let mut j = 0;
            while j + 64 <= n {
                let mut acc: [__m256; 8] = [_mm256_setzero_ps(); 8];
                for (kk, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let avv = _mm256_set1_ps(av);
                    let brow = bp.add(kk * n + j);
                    for (l, slot) in acc.iter_mut().enumerate() {
                        *slot = _mm256_fmadd_ps(avv, _mm256_loadu_ps(brow.add(8 * l)), *slot);
                    }
                }
                for (l, &slot) in acc.iter().enumerate() {
                    _mm256_storeu_ps(o.add(j + 8 * l), slot);
                }
                j += 64;
            }
            while j + 8 <= n {
                let mut acc = _mm256_setzero_ps();
                for (kk, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    acc = _mm256_fmadd_ps(
                        _mm256_set1_ps(av),
                        _mm256_loadu_ps(bp.add(kk * n + j)),
                        acc,
                    );
                }
                _mm256_storeu_ps(o.add(j), acc);
                j += 8;
            }
            while j < n {
                let mut acc = 0.0f32;
                for (kk, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    acc = av.mul_add(*bp.add(kk * n + j), acc);
                }
                *o.add(j) = acc;
                j += 1;
            }
        }
    }

    /// Eight lanes of [`super::fast_exp`], op for op: the same clamp,
    /// products and sums in the same order, each rounded on its own (no
    /// fused multiply-add), so every lane is bit-identical to the scalar
    /// function. `max(lo, x)` then `min(hi, ·)` return `x` itself when
    /// it is NaN, as `f32::clamp` does.
    ///
    /// # Safety
    /// The CPU must support AVX2 (callers check [`avx2_fma_available`]
    /// first); register arithmetic only, no memory access.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fast_exp8(x: __m256) -> __m256 {
        use super::{EXP_CLAMP, EXP_POLY, EXP_RND, LN2_HI, LN2_LO};
        let c = _mm256_set1_ps;
        let x = _mm256_min_ps(c(EXP_CLAMP), _mm256_max_ps(c(-EXP_CLAMP), x));
        let n = _mm256_sub_ps(_mm256_add_ps(_mm256_mul_ps(x, c(LOG2_E)), c(EXP_RND)), c(EXP_RND));
        let f = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(n, c(LN2_HI))),
            _mm256_mul_ps(n, c(LN2_LO)),
        );
        let [c0, rest @ ..] = EXP_POLY;
        let mut p = c(c0);
        for coeff in rest {
            p = _mm256_add_ps(_mm256_mul_ps(p, f), c(coeff));
        }
        let r = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, f), f), f), c(1.0));
        // `n` is a whole number in [-126, 126] (or NaN, when `r` is NaN
        // and the scale cannot matter), so truncation is exact.
        let biased = _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127));
        _mm256_mul_ps(r, _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased)))
    }

    /// In-place [`super::fast_sigmoid`]: `1 / (1 + exp(-x))` eight lanes
    /// at a time, the scalar function on the tail.
    ///
    /// # Safety
    /// The CPU must support AVX2+FMA (callers check
    /// [`avx2_fma_available`] first). Each load and store covers one
    /// `chunks_exact_mut(8)` chunk, exactly eight in-bounds floats, and
    /// is unaligned (`loadu`/`storeu`), so no alignment is required.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sigmoid_slice(xs: &mut [f32]) {
        let one = _mm256_set1_ps(1.0);
        let sign = _mm256_set1_ps(-0.0);
        let mut chunks = xs.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let p = chunk.as_mut_ptr();
            let e = fast_exp8(_mm256_xor_ps(_mm256_loadu_ps(p), sign));
            _mm256_storeu_ps(p, _mm256_div_ps(one, _mm256_add_ps(one, e)));
        }
        for x in chunks.into_remainder() {
            *x = super::fast_sigmoid(*x);
        }
    }

    /// In-place [`super::fast_tanh`]: `(e - 1) / (e + 1)` with
    /// `e = exp(2x)`, eight lanes at a time, the scalar function on the
    /// tail.
    ///
    /// # Safety
    /// As for [`sigmoid_slice`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tanh_slice(xs: &mut [f32]) {
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        let mut chunks = xs.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let p = chunk.as_mut_ptr();
            let e = fast_exp8(_mm256_mul_ps(two, _mm256_loadu_ps(p)));
            _mm256_storeu_ps(p, _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one)));
        }
        for x in chunks.into_remainder() {
            *x = super::fast_tanh(*x);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn arena_recycles_capacity() {
        let mut arena = InferArena::new();
        let mut buf = arena.take(8);
        buf[0] = 5.0;
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        arena.give(buf);
        let again = arena.take(4);
        assert_eq!(again.as_ptr(), ptr, "allocation was reused");
        assert!(again.capacity() >= cap.min(8));
        assert!(again.iter().all(|&x| x == 0.0), "buffer comes back zeroed");
    }

    #[test]
    fn matmul_into_matches_tensor_matmul_exactly_on_small_ints() {
        // Integer-valued inputs: FMA contraction is exact, so even the
        // SIMD kernel must agree bit-for-bit with the tape matmul.
        let a = Tensor::from_vec(2, 3, vec![1., -2., 3., 0., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let want = a.matmul(&b);
        let mut out = vec![f32::NAN; 4];
        matmul_into(a.data(), 2, 3, b.data(), 2, &mut out);
        assert_eq!(out, want.data());
    }

    #[test]
    fn matmul_into_tracks_reference_on_awkward_shapes() {
        // 5 x 67 @ 67 x 139 exercises the 64-wide tile, the 8-wide tile
        // and the scalar remainder columns of the SIMD kernel.
        let mut rng = StdRng::seed_from_u64(41);
        let (m, k, n) = (5, 67, 139);
        let a = Tensor::from_vec(m, k, (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect());
        let b = Tensor::from_vec(k, n, (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect());
        let want = a.matmul(&b);
        let mut out = vec![f32::NAN; m * n];
        matmul_into(a.data(), m, k, b.data(), n, &mut out);
        for (&got, &w) in out.iter().zip(want.data()) {
            assert!((got - w).abs() <= 1e-5 * w.abs().max(1.0), "got {got}, want {w}");
        }
    }

    #[test]
    fn softmax_inplace_matches_softmax_rows() {
        let t = Tensor::row(&[0.3, -1.7, 2.5, 0.0]);
        let want = t.softmax_rows();
        let mut xs = t.data().to_vec();
        softmax_inplace(&mut xs);
        assert_eq!(xs, want.data());
    }

    #[test]
    fn dot_and_axpy() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
        let mut out = vec![1.0, 1.0];
        axpy(&mut out, 2.0, &[3.0, 4.0]);
        assert_eq!(out, vec![7.0, 9.0]);
    }

    #[test]
    fn fast_exp_tracks_libm() {
        let mut x = -86.0f32;
        while x < 86.0 {
            let got = fast_exp(x);
            let want = x.exp();
            assert!((got - want).abs() <= 1e-6 * want, "exp({x}): got {got}, want {want}");
            x += 0.1373;
        }
        assert_eq!(fast_exp(-1000.0), (-87.336_54f32).exp());
        assert!(fast_exp(1000.0).is_finite(), "saturates instead of inf");
    }

    #[test]
    fn fast_sigmoid_and_tanh_track_libm() {
        let mut x = -30.0f32;
        while x < 30.0 {
            assert!((fast_sigmoid(x) - sigmoid(x)).abs() <= 1e-6, "sigmoid({x})");
            assert!((fast_tanh(x) - x.tanh()).abs() <= 1e-6, "tanh({x})");
            x += 0.0917;
        }
    }

    #[test]
    fn slice_activations_match_scalar_kernels() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f32> = (0..103).map(|_| rng.gen_range(-12.0f32..12.0)).collect();
        let mut s = xs.clone();
        sigmoid_slice(&mut s);
        let mut t = xs.clone();
        tanh_slice(&mut t);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(s[i].to_bits(), fast_sigmoid(x).to_bits(), "sigmoid({x})");
            assert_eq!(t[i].to_bits(), fast_tanh(x).to_bits(), "tanh({x})");
        }
        let mut a = xs.clone();
        activate(&mut a, Activation::Sigmoid);
        assert_eq!(a, s);
    }

    #[test]
    fn slice_activations_are_bit_identical_on_edge_inputs() {
        // Saturation bounds, infinities and NaN rotate through every lane
        // of the 8-wide block and the scalar tail, for every length that
        // has a tail, a full block, or both.
        let pool = [
            0.0,
            -0.0,
            87.0,
            -87.0,
            87.5,
            -87.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            1e-30,
            -3.25,
            0.693_359_4,
            f32::MAX,
            f32::MIN_POSITIVE,
        ];
        for len in 0..=17 {
            for shift in 0..pool.len() {
                let xs: Vec<f32> = (0..len).map(|i| pool[(i + shift) % pool.len()]).collect();
                let mut s = xs.clone();
                sigmoid_slice(&mut s);
                let mut t = xs.clone();
                tanh_slice(&mut t);
                for (i, &x) in xs.iter().enumerate() {
                    assert_eq!(s[i].to_bits(), fast_sigmoid(x).to_bits(), "sigmoid({x}) len {len}");
                    assert_eq!(t[i].to_bits(), fast_tanh(x).to_bits(), "tanh({x}) len {len}");
                }
            }
        }
        assert!(fast_sigmoid(f32::NAN).is_nan() && fast_tanh(f32::NAN).is_nan());
    }

    /// The dense sum the kernels computed before zero-skipping: every
    /// `a * b` term added in `k` order, fused exactly when the dispatched
    /// kernel fuses.
    fn dense_reference(
        a: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        fused: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let (av, bv) = (a[i * k + kk], b[kk * n + j]);
                    acc = if fused {
                        av.mul_add(bv, acc)
                    } else {
                        acc + av * bv
                    };
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Whether the dispatched kernels use fused multiply-adds here.
    pub(super) fn kernels_fuse() -> bool {
        #[cfg(target_arch = "x86_64")]
        return x86::avx2_fma_available();
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// A sparse left-hand side: ~60% zeros of both signs, one all-zero
    /// row, one all-`−0.0` row, ~10% tiny non-zeros that must not be
    /// skipped, the rest uniform in ±2.
    pub(super) fn sparse_lhs(rng: &mut StdRng, m: usize, k: usize) -> Vec<f32> {
        let mut a: Vec<f32> = (0..m * k)
            .map(|_| match rng.gen_range(0..10) {
                0..=2 => 0.0,
                3..=5 => -0.0,
                6 => rng.gen_range(-1e-3..1e-3),
                _ => rng.gen_range(-2.0..2.0),
            })
            .collect();
        if m >= 2 {
            a[..k].fill(0.0);
            a[k..2 * k].fill(-0.0);
        }
        a
    }

    /// 64-wide tiles, 8-wide tiles, scalar tails, `k = 1` and a single
    /// output, plus the LSTM input shape.
    pub(super) const AWKWARD_SHAPES: [(usize, usize, usize); 6] =
        [(1, 94, 256), (5, 67, 139), (3, 1, 9), (2, 13, 7), (1, 1, 1), (4, 33, 72)];

    #[test]
    fn zero_skipping_matmul_is_bit_identical_to_dense() {
        let mut rng = StdRng::seed_from_u64(53);
        for (m, k, n) in AWKWARD_SHAPES {
            let a = sparse_lhs(&mut rng, m, k);
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut got = vec![f32::NAN; m * n];
            matmul_into(&a, m, k, &b, n, &mut got);
            let want = dense_reference(&a, m, k, &b, n, kernels_fuse());
            let mut scalar = vec![f32::NAN; m * n];
            matmul_into_scalar(&a, m, k, &b, n, &mut scalar);
            let scalar_want = dense_reference(&a, m, k, &b, n, false);
            for idx in 0..m * n {
                assert_eq!(got[idx].to_bits(), want[idx].to_bits(), "{m}x{k}x{n} elem {idx}");
                assert_eq!(scalar[idx].to_bits(), scalar_want[idx].to_bits(), "scalar elem {idx}");
            }
        }
    }
}
