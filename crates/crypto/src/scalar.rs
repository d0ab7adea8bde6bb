//! Arithmetic modulo the prime group order
//! `ℓ = 2^252 + 27742317777372353535851937790883648493`.
//!
//! Scalars are four 64-bit little-endian limbs, always fully reduced.
//! Every wide (512-bit) value — a SHA-512 digest in signing and
//! verification, a product in [`Scalar::mul`] — is reduced by Barrett
//! reduction (HAC Algorithm 14.42 with base `b = 2^64`, `k = 4`): a
//! quotient estimate from one 5×5-limb product with the precomputed
//! `μ = ⌊2^512/ℓ⌋`, its multiple of ℓ to five limbs, and one conditional
//! subtraction of ℓ — a fixed ≈ 25 ns on a 2-core Xeon VM. It
//! replaced binary long division (260 shift-compare-subtract rounds,
//! ≈ 1.5 µs), which the tests keep as the oracle every reduction is
//! compared with.

/// ℓ as little-endian 64-bit limbs.
pub const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0,
    0x1000_0000_0000_0000,
];

/// ℓ widened to the five limbs Barrett's remainder lives in.
const L5: [u64; 5] = [L[0], L[1], L[2], L[3], 0];

/// `μ = ⌊2^512/ℓ⌋`, the Barrett constant: just below 2^260, so five
/// limbs. Derived from [`L`] at compile time by restoring division of
/// 2^512, one quotient bit per step.
const MU: [u64; 5] = {
    let mut mu = [0u64; 5];
    // The running remainder stays below ℓ < 2^253, so doubling it and
    // shifting in the next numerator bit never leaves four limbs.
    let mut rem = [0u64; 4];
    let mut bit = 513;
    while bit > 0 {
        bit -= 1;
        let mut i = 3;
        while i > 0 {
            rem[i] = rem[i] << 1 | rem[i - 1] >> 63;
            i -= 1;
        }
        rem[0] = rem[0] << 1 | (bit == 512) as u64;
        if geq(&rem, &L) {
            sub_in_place(&mut rem, &L);
            // Quotient bits above 259 stay clear: 2^(512−bit) < ℓ there.
            mu[bit / 64] |= 1 << (bit % 64);
        }
    }
    mu
};

/// A scalar modulo ℓ, fully reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(pub [u64; 4]);

/// Compares two little-endian limb slices of equal length.
const fn geq(a: &[u64], b: &[u64]) -> bool {
    let mut i = a.len();
    while i > 0 {
        i -= 1;
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a -= b` modulo `2^(64·len)` (little-endian limbs of equal length);
/// returns whether it wrapped.
const fn sub_wrapping(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    let mut i = 0;
    while i < a.len() {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        a[i] = d;
        borrow = b1 || b2;
        i += 1;
    }
    borrow
}

/// `a -= b` (little-endian limbs, a >= b).
const fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let borrow = sub_wrapping(a, b);
    debug_assert!(!borrow, "subtraction underflowed");
}

/// `a · b mod 2^(64·N)`, schoolbook over little-endian limbs; exact when
/// `N ≥ A + B`. The sizes are compile-time constants so the loops fully
/// unroll (over slices, a reduction took twice as long).
fn mul_limbs<const A: usize, const B: usize, const N: usize>(
    a: &[u64; A],
    b: &[u64; B],
) -> [u64; N] {
    let mut out = [0u64; N];
    for i in 0..A.min(N) {
        let mut carry = 0u128;
        for j in 0..B.min(N - i) {
            let t = out[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        if i + B < N {
            out[i + B] = carry as u64;
        }
    }
    out
}

/// Reduces a 512-bit value (8 LE limbs) modulo ℓ: Barrett reduction,
/// HAC Algorithm 14.42 with `b = 2^64`, `k = 4`.
///
/// The estimate `q = ⌊⌊x / b³⌋ · μ / b⁵⌋` falls short of `x / ℓ` by the
/// three truncations: of μ, less than `(2^512 mod ℓ) / ℓ < 1/4`; of
/// `x / b³`, less than `μ / b⁵ < 2^−60`; of the quotient, less than 1.
/// Below 2 in all, so `q` is `⌊x / ℓ⌋` or one less, and where HAC's
/// generic bound allows two final subtractions of ℓ, ℓ's own needs one.
fn mod_l_wide(x: [u64; 8]) -> [u64; 4] {
    let q1 = [x[3], x[4], x[5], x[6], x[7]];
    let q2: [u64; 10] = mul_limbs(&q1, &MU);
    let q = [q2[5], q2[6], q2[7], q2[8], q2[9]];
    // 0 ≤ x − q·ℓ < 2ℓ < b⁵, so computing it modulo b⁵ is exact.
    let mut r = [x[0], x[1], x[2], x[3], x[4]];
    let ql: [u64; 5] = mul_limbs(&q, &L);
    sub_wrapping(&mut r, &ql);
    if geq(&r, &L5) {
        sub_in_place(&mut r, &L5);
    }
    debug_assert!(!geq(&r, &L5), "Barrett remainder not below ℓ");
    [r[0], r[1], r[2], r[3]]
}

impl Scalar {
    /// Zero.
    pub const ZERO: Scalar = Scalar([0; 4]);
    /// One.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// From a u64.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    /// Reduces 32 bytes (little-endian) modulo ℓ.
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut w = [0u64; 8];
        for (i, c) in bytes.chunks_exact(8).enumerate() {
            w[i] = u64::from_le_bytes(c.try_into().unwrap());
        }
        Scalar(mod_l_wide(w))
    }

    /// Reduces 64 bytes (little-endian) modulo ℓ — the form produced by
    /// SHA-512 in RFC 8032.
    pub fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Scalar {
        let mut w = [0u64; 8];
        for (i, c) in bytes.chunks_exact(8).enumerate() {
            w[i] = u64::from_le_bytes(c.try_into().unwrap());
        }
        Scalar(mod_l_wide(w))
    }

    /// Parses 32 bytes, accepting only canonical scalars (`< ℓ`), as
    /// RFC 8032 requires when verifying the `S` half of a signature.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for (i, c) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(c.try_into().unwrap());
        }
        if geq(&limbs, &L) {
            None
        } else {
            Some(Scalar(limbs))
        }
    }

    /// Little-endian canonical encoding.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// `self + rhs (mod ℓ)`.
    pub fn add(self, rhs: Scalar) -> Scalar {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        #[allow(clippy::needless_range_loop)] // lockstep over two arrays
        for i in 0..4 {
            let (s, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s, c2) = s.overflowing_add(carry);
            out[i] = s;
            carry = (c1 || c2) as u64;
        }
        // Both inputs < ℓ < 2^253, so no 256-bit overflow; subtract ℓ if
        // needed.
        debug_assert_eq!(carry, 0);
        if geq(&out, &L) {
            sub_in_place(&mut out, &L);
        }
        Scalar(out)
    }

    /// `self * rhs (mod ℓ)`.
    pub fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(mod_l_wide(mul_limbs(&self.0, &rhs.0)))
    }

    /// True iff the scalar is zero.
    pub fn is_zero(self) -> bool {
        self.0 == [0; 4]
    }

    /// Signed radix-16 digits: `self = Σ eᵢ·16^i` with `eᵢ ∈ [−8, 8)` for
    /// `i < 63` and `e₆₃ ∈ [0, 2]` (a reduced scalar is below 2^253) —
    /// the recoding [`crate::edwards::Point::mul_base`] walks.
    pub(crate) fn radix16(self) -> [i8; 64] {
        let bytes = self.to_bytes();
        let mut carry = 0i8;
        std::array::from_fn(|i| {
            let nibble = (bytes[i / 2] >> (4 * (i % 2))) & 15;
            let digit = nibble as i8 + carry;
            carry = i8::from(digit >= 8 && i < 63);
            digit - 16 * carry
        })
    }

    /// Width-`w` non-adjacent form, `2 ≤ w ≤ 8`: `self = Σ dᵢ·2^i` where
    /// every nonzero `dᵢ` is odd, `|dᵢ| < 2^(w−1)`, and any `w`
    /// consecutive digits hold at most one nonzero — so a 253-bit scalar
    /// has about `253/(w+1)` nonzero digits. A reduced scalar's top digit
    /// sits at position 253 at the latest.
    pub(crate) fn non_adjacent_form(self, w: u32) -> [i8; 256] {
        debug_assert!((2..=8).contains(&w));
        let width = 1u64 << w;
        let limbs = [self.0[0], self.0[1], self.0[2], self.0[3], 0];
        let mut naf = [0i8; 256];
        let mut pos = 0;
        let mut carry = 0;
        while pos < 256 {
            let (limb, bit) = (pos / 64, pos % 64);
            // The w bits at `pos`, possibly straddling two limbs.
            let mut window = limbs[limb] >> bit;
            if bit + w as usize > 64 {
                window |= limbs[limb + 1] << (64 - bit);
            }
            let window = carry + (window & (width - 1));
            if window & 1 == 0 {
                // Even: emit a zero digit and let the carry ride along.
                pos += 1;
                continue;
            }
            // Odd: take the representative in (−2^(w−1), 2^(w−1)).
            carry = u64::from(window >= width / 2);
            naf[pos] = (window as i16 - (carry * width) as i16) as i8;
            pos += w as usize;
        }
        naf
    }

    /// `(lo, hi)` with `self = lo + 2^128·hi`: the low and high 128 bits,
    /// each a scalar of its own (`hi < 2^125`). A fixed point's terms are
    /// split so, and read `lo` from a table of `P` and `hi` from a table
    /// of `2^128·P` (see [`crate::edwards`]).
    pub(crate) fn split_128(self) -> (Scalar, Scalar) {
        (
            Scalar([self.0[0], self.0[1], 0, 0]),
            Scalar([self.0[2], self.0[3], 0, 0]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn l_reduces_to_zero() {
        let mut bytes = [0u8; 32];
        for (i, limb) in L.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_mod_order(&bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&bytes).is_none());
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let mut limbs = L;
        limbs[0] -= 1;
        let mut bytes = [0u8; 32];
        for (i, limb) in limbs.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        let s = Scalar::from_canonical_bytes(&bytes).unwrap();
        // (ℓ-1) + 1 = 0 mod ℓ.
        assert_eq!(s.add(Scalar::ONE), Scalar::ZERO);
        // (ℓ-1) * (ℓ-1) = 1 mod ℓ  (it is -1).
        assert_eq!(s.mul(s), Scalar::ONE);
    }

    #[test]
    fn small_products() {
        assert_eq!(
            Scalar::from_u64(6).mul(Scalar::from_u64(7)),
            Scalar::from_u64(42)
        );
        assert_eq!(
            Scalar::from_u64(5).add(Scalar::from_u64(9)),
            Scalar::from_u64(14)
        );
    }

    #[test]
    fn wide_reduction_matches_iterated_add() {
        // 2^256 mod ℓ: compute via from_bytes_mod_order_wide of
        // 0x1 || 32 zero bytes, and via repeated doubling of 1.
        let mut wide = [0u8; 64];
        wide[32] = 1;
        let direct = Scalar::from_bytes_mod_order_wide(&wide);
        let mut doubled = Scalar::ONE;
        for _ in 0..256 {
            doubled = doubled.add(doubled);
        }
        assert_eq!(direct, doubled);
    }

    /// Binary long division against shifted copies of ℓ: the oracle
    /// every reduction is compared with.
    fn mod_l_long_division(mut w: [u64; 8]) -> [u64; 4] {
        // ℓ has 253 bits; shifts up to 512-253 = 259 are enough.
        for shift in (0..=259u32).rev() {
            // shifted = L << shift, as 8 (+guard) limbs.
            let limb_shift = (shift / 64) as usize;
            let bit_shift = shift % 64;
            let mut shifted = [0u64; 9];
            for i in 0..4 {
                shifted[i + limb_shift] |= L[i] << bit_shift;
                if bit_shift > 0 && i + limb_shift + 1 < 9 {
                    shifted[i + limb_shift + 1] |= L[i] >> (64 - bit_shift);
                }
            }
            if shifted[8] != 0 {
                continue; // doesn't fit in 512 bits; can't subtract
            }
            let shifted8: [u64; 8] = shifted[..8].try_into().unwrap();
            if geq(&w, &shifted8) {
                sub_in_place(&mut w, &shifted8);
            }
        }
        assert!(w[4..].iter().all(|&x| x == 0));
        [w[0], w[1], w[2], w[3]]
    }

    /// `Scalar::mul` by the oracle: its own schoolbook product, then long
    /// division.
    fn mul_oracle(a: Scalar, b: Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = wide[i + j] as u128 + a.0[i] as u128 * b.0[j] as u128 + carry;
                wide[i + j] = t as u64;
                carry = t >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        Scalar(mod_l_long_division(wide))
    }

    fn bytes_of(w: &[u64; 8]) -> [u8; 64] {
        let mut out = [0u8; 64];
        for (c, limb) in out.chunks_exact_mut(8).zip(w) {
            c.copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Every path into the reduction, on one 512-bit input and on its
    /// low half, against the oracle.
    fn check_against_oracle(w: [u64; 8]) {
        let bytes = bytes_of(&w);
        assert_eq!(
            Scalar::from_bytes_mod_order_wide(&bytes).0,
            mod_l_long_division(w),
            "wide {w:x?}"
        );
        let mut low = w;
        low[4..].fill(0);
        assert_eq!(
            Scalar::from_bytes_mod_order(bytes[..32].try_into().unwrap()).0,
            mod_l_long_division(low),
            "narrow {low:x?}"
        );
    }

    /// 0, 1, ℓ−1, ℓ, ℓ+1, 2ℓ, (ℓ−1)², 2^512−1, and 2^k and 2^512−1−2^k
    /// for every k < 512 — where the Barrett quotient estimate is at its
    /// loosest and the final subtraction is needed.
    fn edge_inputs() -> Vec<[u64; 8]> {
        let widen = |s: [u64; 4]| [s[0], s[1], s[2], s[3], 0, 0, 0, 0];
        let mut l_minus_1 = L;
        l_minus_1[0] -= 1;
        let mut l_plus_1 = L;
        l_plus_1[0] += 1;
        let mut two_l = [0u64; 8];
        for (i, limb) in L.iter().enumerate() {
            two_l[i] |= limb << 1;
            two_l[i + 1] |= limb >> 63;
        }
        let mut out = vec![
            [0; 8],
            widen([1, 0, 0, 0]),
            widen(l_minus_1),
            widen(L),
            widen(l_plus_1),
            two_l,
            mul_limbs(&l_minus_1, &l_minus_1),
            [u64::MAX; 8],
        ];
        for k in 0..512 {
            let mut power = [0u64; 8];
            power[k / 64] = 1 << (k % 64);
            let mut complement = [u64::MAX; 8];
            complement[k / 64] ^= 1 << (k % 64);
            out.extend([power, complement]);
        }
        out
    }

    #[test]
    fn reduction_matches_the_oracle_on_edge_inputs() {
        let edges = edge_inputs();
        assert_eq!(edges.len(), 8 + 2 * 512);
        for w in edges {
            check_against_oracle(w);
        }
    }

    /// μ re-derived the other way round: `μ·ℓ ≤ 2^512 < (μ+1)·ℓ`, i.e.
    /// `2^512 − μ·ℓ` is a remainder below ℓ — and below ℓ/4, the bound
    /// behind `mod_l_wide`'s single final subtraction.
    #[test]
    fn barrett_constant_is_floor_of_2_512_over_l() {
        let product: [u64; 9] = mul_limbs(&MU, &L);
        let mut rem = [0, 0, 0, 0, 0, 0, 0, 0, 1];
        assert!(!sub_wrapping(&mut rem, &product), "μ·ℓ exceeds 2^512");
        assert!(rem[4..].iter().all(|&x| x == 0), "2^512 − μ·ℓ ≥ 2^256");
        assert!(!geq(&rem[..4], &L), "2^512 − μ·ℓ ≥ ℓ");
        let four_rem: [u64; 5] = mul_limbs(&[rem[0], rem[1], rem[2], rem[3]], &[4]);
        assert!(!geq(&four_rem, &L5), "2^512 mod ℓ ≥ ℓ/4");
        assert_eq!(MU[4], 0xf, "μ sits just below 2^260");
    }

    /// Horner evaluation of signed digits at the given radix.
    fn recompose(digits: &[i8], radix: u64) -> Scalar {
        digits.iter().rev().fold(Scalar::ZERO, |acc, &d| {
            let magnitude = Scalar::from_u64(u64::from(d.unsigned_abs()));
            let digit = if d < 0 { magnitude.neg() } else { magnitude };
            acc.mul(Scalar::from_u64(radix)).add(digit)
        })
    }

    fn check_recodings(k: Scalar) {
        let e = k.radix16();
        assert_eq!(recompose(&e, 16), k);
        let (lo, hi) = k.split_128();
        assert_eq!(lo.add(hi.mul(Scalar([0, 0, 1, 0]))), k, "lo + 2^128·hi");
        assert!(lo.0[2..] == [0, 0] && hi.0[2..] == [0, 0] && hi.0[1] >> 61 == 0);
        assert!(e[..63].iter().all(|d| (-8..8).contains(d)) && (0..=2).contains(&e[63]));
        for w in [2u32, 5, 8] {
            let naf = k.non_adjacent_form(w);
            assert_eq!(recompose(&naf, 2), k, "width {w}");
            let bound = 1i16 << (w - 1);
            for (i, &d) in naf.iter().enumerate() {
                if d != 0 {
                    assert!(
                        d & 1 == 1 && i16::from(d).abs() < bound,
                        "width {w}, digit {i}"
                    );
                    let window = &naf[i + 1..(i + w as usize).min(256)];
                    assert!(window.iter().all(|&z| z == 0), "width {w}, digit {i}");
                }
            }
        }
    }

    #[test]
    fn recodings_recompose_on_edge_scalars() {
        let mut l_minus_1 = L;
        l_minus_1[0] -= 1;
        let all_ones = Scalar([u64::MAX, u64::MAX, u64::MAX, (1 << 60) - 1]); // 2^252 − 1
        for k in [
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(2),
            Scalar(l_minus_1),
            all_ones,
            all_ones.sub(Scalar::from_u64(7)),
            Scalar([0x8888_8888_8888_8888; 4].map(|l| l >> 4)),
            Scalar([0, 0, 0, 1 << 60]),
        ] {
            check_recodings(k);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::DIFFERENTIAL_CASES))]

        #[test]
        fn reductions_match_the_oracle(w: [u64; 8]) {
            check_against_oracle(w);
        }

        #[test]
        fn mul_matches_the_oracle(a: [u64; 4], b: [u64; 4]) {
            // Operands reduced by the oracle, not by the code under test.
            let reduce = |s: [u64; 4]| {
                Scalar(mod_l_long_division([s[0], s[1], s[2], s[3], 0, 0, 0, 0]))
            };
            let (a, b) = (reduce(a), reduce(b));
            prop_assert_eq!(a.mul(b), mul_oracle(a, b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn recodings_recompose(a: [u8; 32]) {
            check_recodings(Scalar::from_bytes_mod_order(&a));
        }

        #[test]
        fn add_commutes(a: [u8; 32], b: [u8; 32]) {
            let (a, b) = (
                Scalar::from_bytes_mod_order(&a),
                Scalar::from_bytes_mod_order(&b),
            );
            prop_assert_eq!(a.add(b), b.add(a));
        }

        #[test]
        fn mul_distributes(a: [u8; 32], b: [u8; 32], c: [u8; 32]) {
            let (a, b, c) = (
                Scalar::from_bytes_mod_order(&a),
                Scalar::from_bytes_mod_order(&b),
                Scalar::from_bytes_mod_order(&c),
            );
            prop_assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        }

        #[test]
        fn reduction_is_canonical(a: [u8; 32]) {
            let s = Scalar::from_bytes_mod_order(&a);
            prop_assert!(Scalar::from_canonical_bytes(&s.to_bytes()).is_some());
        }

        #[test]
        fn roundtrip(a: [u8; 32]) {
            let s = Scalar::from_bytes_mod_order(&a);
            prop_assert_eq!(Scalar::from_bytes_mod_order(&s.to_bytes()), s);
        }
    }
}

impl Scalar {
    /// `-self (mod ℓ)`.
    pub fn neg(self) -> Scalar {
        if self.is_zero() {
            return self;
        }
        let mut out = L;
        sub_in_place(&mut out, &self.0);
        Scalar(out)
    }

    /// `self - rhs (mod ℓ)`.
    pub fn sub(self, rhs: Scalar) -> Scalar {
        self.add(rhs.neg())
    }
}

#[cfg(test)]
mod neg_tests {
    use super::*;

    #[test]
    fn neg_cancels() {
        let s = Scalar::from_u64(12345);
        assert_eq!(s.add(s.neg()), Scalar::ZERO);
        assert_eq!(Scalar::ZERO.neg(), Scalar::ZERO);
    }

    #[test]
    fn sub_matches_add_neg() {
        let a = Scalar::from_u64(100);
        let b = Scalar::from_u64(30);
        assert_eq!(a.sub(b), Scalar::from_u64(70));
        assert_eq!(b.sub(a), Scalar::from_u64(70).neg());
    }
}
