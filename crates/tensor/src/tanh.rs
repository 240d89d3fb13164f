//! `tanh` for `f32`, pinned in-repo: the fdlibm `tanhf` and `expm1f`
//! arithmetic that glibc 2.36 ships, written as one branch-free lane
//! body.
//!
//! The embedding MLP computes tanh on every hidden activation, and the
//! host libm's scalar `tanhf` was most of that stage's time. This lane
//! body computes every path of the C code and picks the result with
//! selects, so a loop over a slice auto-vectorises; `Matrix::tanh_into`
//! runs that loop on the GEMM's arms. Each operation is the C code's
//! own: a separate IEEE multiply then add (never a fused multiply-add),
//! true division, the same constants and the same thresholds, so every
//! arm gives the C code's bits, and the results no longer depend on
//! which libm the host links.

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// 1.5·2^23: adding it rounds a float below 2^22 in magnitude to an
/// integer, held in the sum's low mantissa bits.
const MAGIC: f32 = 12_582_912.0;

/// `expm1f(u)` for the arguments `tanhf` passes: `u ∈ (-2, 0]` or
/// `u ∈ [2, 44)`, plus whatever lanes the caller discards. The C code's
/// huge-argument filter and its `k = 1` case never fire on those, and
/// are left out.
#[inline(always)]
fn expm1_lane(u: f32) -> f32 {
    let hu = u.to_bits() & 0x7fff_ffff;
    let neg = u.is_sign_negative();
    // Argument reduction: u = k·ln2 + r, r = hi - lo, c its rounding
    // error. The C code converts `invln2·u ± 0.5` to int, truncating.
    // Here the sum is rounded to an integer by adding and taking away
    // 1.5·2^23, then stepped back toward zero where that rounded away
    // from it: exact for |v| < 2^22, and it vectorises on every arm
    // (`trunc` needs SSE4.1).
    let v = INVLN2 * u + if neg { -0.5f32 } else { 0.5 };
    let n = (v + MAGIC) - MAGIC;
    let rounded = if !neg && n > v {
        n - 1.0
    } else if neg && n < v {
        n + 1.0
    } else {
        n
    };
    // |u| ≤ 0.5·ln2 takes k = 0 and 0.5·ln2 < |u| < 1.5·ln2 takes
    // k = -1 (u is never positive there); both give the C code's `hi`,
    // `lo` through the general formula (`0·ln2_hi` and `-1·ln2_hi` are
    // exact).
    let tk = if hu <= 0x3eb1_7218 {
        0.0
    } else if hu < 0x3f85_1592 {
        -1.0
    } else {
        rounded
    };
    // k as an integer, without a float-to-int conversion (Rust's
    // saturating `as` does not vectorise): an integer-valued float below
    // 2^22 in magnitude sits in the low mantissa bits of itself plus
    // 1.5·2^23.
    let k = (tk + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits()) as i32;
    let hi = u - tk * LN2_HI;
    let lo = tk * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    // r is in the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let ek = (r * (e - c) - c) - hxs;
    let far = k <= -2 || k > 56;
    let two_neg_k = f32::from_bits((0x7fi32.wrapping_sub(k) as u32).wrapping_shl(23));
    let y = if k >= 23 && !far {
        (r - (ek + two_neg_k)) + 1.0
    } else {
        // `1 - 2^-k` is exact for 3 ≤ k < 23: the C code's bit pattern
        // `0x3f800000 - (0x1000000 >> k)`.
        let one_minus = if far { 1.0 } else { 1.0 - two_neg_k };
        one_minus - (ek - r)
    };
    // 2^k·y: k added to y's exponent field (wrapping: k may be negative,
    // and a discarded lane's k anything).
    let y = f32::from_bits(y.to_bits().wrapping_add((k as u32).wrapping_shl(23)));
    let em = if far { y - 1.0 } else { y };
    let em = if k == -1 { 0.5 * (r - ek) - 0.5 } else { em };
    let em = if k == 0 { r - (r * e - hxs) } else { em };
    // |u| < 2^-25: expm1(u) = u.
    if hu < 0x3300_0000 {
        u
    } else {
        em
    }
}

/// `tanhf(x)`, bit for bit: every path computed, the result selected.
#[inline(always)]
pub(crate) fn tanh_lane(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // |x| ≥ 1: 1 - 2/(expm1(2|x|) + 2); else -t/(t + 2), t = expm1(-2|x|).
    let big = ix >= 0x3f80_0000;
    let t = expm1_lane(if big { 2.0 * ax } else { -2.0 * ax });
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| ≥ 22 (±inf included): ±1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = f32::from_bits(z.to_bits() ^ (jx & 0x8000_0000));
    // |x| < 2^-55 (±0 and subnormals included): x·(1 + x).
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::tanh_lane;

    /// `(bits of x, bits of tanhf(x), bits of tanhf(-x))` from glibc
    /// 2.36's `tanhf`, recorded on x86-64 (Debian 12). Every branch of
    /// `tanhf` and `expm1f` is here: ±0, subnormals, |x| below 2⁻⁵⁵,
    /// both sides of 2⁻²⁶ (expm1's |u| < 2⁻²⁵ cut), of 0.25·ln2 and
    /// 0.75·ln2 (its k = 0 and k = -1 reductions), of 1, of each change
    /// of k (−1 → −2 → −3, 22 → 23, 56 → 57) and of 22, plus ±inf and
    /// NaN; then a few inputs whose last bit depends on the rounding of
    /// the polynomial or of the k = -2 path, and a geometric spread.
    ///
    /// This table, not the host libm, is what the golden curves rest
    /// on: before tanh was computed in-repo, a host linking musl, or a
    /// glibc ≥ 2.41 (whose `tanhf` is correctly rounded), would have
    /// moved every embedding-stage golden without any test naming the
    /// cause.
    pub(crate) const PINNED: &[(u32, u32, u32)] = &[
        // ±0, subnormals, the least normal
        (0x00000000, 0x00000000, 0x80000000),
        (0x00000001, 0x00000001, 0x80000001),
        (0x00400000, 0x00400000, 0x80400000),
        (0x007fffff, 0x007fffff, 0x807fffff),
        (0x00800000, 0x00800000, 0x80800000),
        // |x| < 2⁻⁵⁵: x·(1 + x); and just above
        (0x1f800000, 0x1f800000, 0x9f800000),
        (0x23ffffff, 0x23ffffff, 0xa3ffffff),
        (0x24000000, 0x24000000, 0xa4000000),
        (0x24000001, 0x24000001, 0xa4000001),
        // around 2⁻²⁶, where expm1's |u| < 2⁻²⁵ shortcut ends
        (0x327fffff, 0x327fffff, 0xb27fffff),
        (0x32800000, 0x32800000, 0xb2800000),
        (0x32800001, 0x32800001, 0xb2800001),
        (0x33000000, 0x33000000, 0xb3000000),
        // k = 0, up to |u| = 0.5·ln2
        (0x3d000000, 0x3cffeaad, 0xbcffeaad),
        (0x3dcccccd, 0x3dcc1ebc, 0xbdcc1ebc),
        (0x3e317217, 0x3e2fb0cc, 0xbe2fb0cc),
        (0x3e317218, 0x3e2fb0cd, 0xbe2fb0cd),
        // k = -1, from 0.5·ln2 to 1.5·ln2
        (0x3e317219, 0x3e2fb0cd, 0xbe2fb0cd),
        (0x3e31721a, 0x3e2fb0cf, 0xbe2fb0cf),
        (0x3e99999a, 0x3e9526ed, 0xbe9526ed),
        (0x3f051590, 0x3ef486f5, 0xbef486f5),
        (0x3f051591, 0x3ef486f8, 0xbef486f8),
        // k = -2 from 1.5·ln2, -3 from 0x3f5dce9e, up to 1
        (0x3f051592, 0x3ef486f8, 0xbef486f8),
        (0x3f051593, 0x3ef486fb, 0xbef486fb),
        (0x3f19999a, 0x3f097c15, 0xbf097c15),
        (0x3f5dce9c, 0x3f331636, 0xbf331636),
        (0x3f5dce9d, 0x3f331638, 0xbf331638),
        (0x3f5dce9e, 0x3f331638, 0xbf331638),
        (0x3f5dce9f, 0x3f331639, 0xbf331639),
        (0x3f666666, 0x3f375f4c, 0xbf375f4c),
        (0x3f7ffffe, 0x3f42f7d5, 0xbf42f7d5),
        (0x3f7fffff, 0x3f42f7d5, 0xbf42f7d5),
        // 3 ≤ k < 23: |x| ≥ 1
        (0x3f800000, 0x3f42f7d6, 0xbf42f7d6),
        (0x3f800001, 0x3f42f7d6, 0xbf42f7d6),
        (0x3f9b43d4, 0x3f566b9a, 0xbf566b9a),
        (0x3f9b43d5, 0x3f566b9a, 0xbf566b9a),
        (0x40000000, 0x3f76ca83, 0xbf76ca83),
        (0x40200000, 0x3f7c92c1, 0xbf7c92c1),
        (0x40490fdb, 0x3f7f0bb0, 0xbf7f0bb0),
        (0x40a00000, 0x3f7ffa0d, 0xbf7ffa0d),
        (0x40e00000, 0x3f7fffe4, 0xbf7fffe4),
        (0x40ee7150, 0x3f7ffff5, 0xbf7ffff5),
        (0x40f40000, 0x3f7ffff8, 0xbf7ffff8),
        (0x40f98870, 0x3f7ffffa, 0xbf7ffffa),
        (0x40f98871, 0x3f7ffffa, 0xbf7ffffa),
        // 23 ≤ k ≤ 56
        (0x40f98872, 0x3f7ffffa, 0xbf7ffffa),
        (0x40f98873, 0x3f7ffffa, 0xbf7ffffa),
        (0x41100000, 0x3f7fffff, 0xbf7fffff),
        (0x41400000, 0x3f800000, 0xbf800000),
        (0x4199e0f1, 0x3f800000, 0xbf800000),
        (0x419ca6b7, 0x3f800000, 0xbf800000),
        (0x419ca6b8, 0x3f800000, 0xbf800000),
        // k > 56: |x| from 0x419ca6b9 (≈ 19.58)
        (0x419ca6b9, 0x3f800000, 0xbf800000),
        (0x419ca6ba, 0x3f800000, 0xbf800000),
        (0x41a00000, 0x3f800000, 0xbf800000),
        (0x41ad496c, 0x3f800000, 0xbf800000),
        (0x41affffe, 0x3f800000, 0xbf800000),
        (0x41afffff, 0x3f800000, 0xbf800000),
        // |x| ≥ 22: ±1
        (0x41b00000, 0x3f800000, 0xbf800000),
        (0x41b00001, 0x3f800000, 0xbf800000),
        (0x42000000, 0x3f800000, 0xbf800000),
        (0x4b000000, 0x3f800000, 0xbf800000),
        (0x7f7fffff, 0x3f800000, 0xbf800000),
        // ±inf and NaN (any NaN matches any NaN)
        (0x7f800000, 0x3f800000, 0xbf800000),
        (0x7f800001, 0x7fc00001, 0xffc00001),
        (0x7fc00000, 0x7fc00000, 0xffc00000),
        (0x7fffffff, 0x7fffffff, 0xffffffff),
        // whose last bit an FMA in the polynomial's outer Horner step
        // would move (4 of the 35 such positive inputs)
        (0x3dc2562e, 0x3dc1c165, 0xbdc1c165),
        (0x3e0aa71e, 0x3e09cfc6, 0xbe09cfc6),
        (0x3e388915, 0x3e36903f, 0xbe36903f),
        (0x3e6daba9, 0x3e697e26, 0xbe697e26),
        // whose last bit the k = -2 path's own rounding decides (k = -3's
        // form, 1 - 2^-k, gives another)
        (0x3f0515fb, 0x3ef48799, 0xbef48799),
        (0x3f0515fc, 0x3ef4879e, 0xbef4879e),
        (0x3f05160d, 0x3ef487b8, 0xbef487b8),
        // a geometric spread, 2^(-30 + 0.875·i) for i < 40
        (0x30800000, 0x30800000, 0xb0800000),
        (0x30eac0c7, 0x30eac0c7, 0xb0eac0c7),
        (0x315744fd, 0x315744fd, 0xb15744fd),
        (0x31c5672a, 0x31c5672a, 0xb1c5672a),
        (0x323504f3, 0x323504f3, 0xb23504f3),
        (0x32a5fed7, 0x32a5fed7, 0xb2a5fed7),
        (0x331837f0, 0x331837f1, 0xb31837f1),
        (0x338b95c2, 0x338b95c2, 0xb38b95c2),
        (0x34000000, 0x34000000, 0xb4000000),
        (0x346ac0c7, 0x346ac0c8, 0xb46ac0c8),
        (0x34d744fd, 0x34d744fd, 0xb4d744fd),
        (0x3545672a, 0x35456729, 0xb5456729),
        (0x35b504f3, 0x35b504f3, 0xb5b504f3),
        (0x3625fed7, 0x3625fed7, 0xb625fed7),
        (0x369837f0, 0x369837f0, 0xb69837f0),
        (0x370b95c2, 0x370b95c2, 0xb70b95c2),
        (0x37800000, 0x37800000, 0xb7800000),
        (0x37eac0c7, 0x37eac0c6, 0xb7eac0c6),
        (0x385744fd, 0x385744fd, 0xb85744fd),
        (0x38c5672a, 0x38c5672a, 0xb8c5672a),
        (0x393504f3, 0x393504f3, 0xb93504f3),
        (0x39a5fed7, 0x39a5fed6, 0xb9a5fed6),
        (0x3a1837f0, 0x3a1837ef, 0xba1837ef),
        (0x3a8b95c2, 0x3a8b95bf, 0xba8b95bf),
        (0x3b000000, 0x3affffeb, 0xbaffffeb),
        (0x3b6ac0c7, 0x3b6ac085, 0xbb6ac085),
        (0x3bd744fd, 0x3bd74432, 0xbbd74432),
        (0x3c45672a, 0x3c4564b9, 0xbc4564b9),
        (0x3cb504f3, 0x3cb4fd68, 0xbcb4fd68),
        (0x3d25fed7, 0x3d25e798, 0xbd25e798),
        (0x3d9837f0, 0x3d97f056, 0xbd97f056),
        (0x3e0b95c2, 0x3e0aba10, 0xbe0aba10),
        (0x3e800000, 0x3e7acbf5, 0xbe7acbf5),
        (0x3eeac0c7, 0x3edb93e0, 0xbedb93e0),
        (0x3f5744fd, 0x3f2fb047, 0xbf2fb047),
        (0x3fc5672a, 0x3f699905, 0xbf699905),
        (0x403504f3, 0x3f7e37b2, 0xbf7e37b2),
        (0x40a5fed7, 0x3f7ffbe9, 0xbf7ffbe9),
        (0x411837f0, 0x3f800000, 0xbf800000),
        (0x418b95c2, 0x3f800000, 0xbf800000),
    ];

    #[test]
    fn tanh_lane_matches_pinned_glibc_values() {
        let same = |got: u32, want: u32| {
            let nan = |b: u32| f32::from_bits(b).is_nan();
            got == want || (nan(got) && nan(want))
        };
        for &(x, plus, minus) in PINNED {
            for (x, want) in [(x, plus), (x ^ 0x8000_0000, minus)] {
                let got = tanh_lane(f32::from_bits(x)).to_bits();
                assert!(
                    same(got, want),
                    "tanh({:e} = {x:#010x}) = {got:#010x}, glibc gives {want:#010x}",
                    f32::from_bits(x)
                );
            }
        }
    }
}
