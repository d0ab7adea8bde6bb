//! Arithmetic in GF(2^255 − 19), the base field of Curve25519.
//!
//! Representation: five 51-bit limbs (`h = Σ h_i · 2^(51 i)`), the classic
//! "ref10" radix. Two limb bounds are in play:
//!
//! * *reduced* — every limb < 2^52. [`Fe::mul`], [`Fe::square`],
//!   [`Fe::sub`], [`Fe::neg`] and the decoders return reduced elements.
//! * *loose* — every limb < 2^54. [`Fe::add`] does not carry, so the sum
//!   of two reduced elements has limbs < 2^53 and the sum of three < 2^54.
//!   `mul`, `square` and `sub` accept loose operands (their intermediate
//!   sums still fit `u128`/`u64`; `debug_assert!`s check the bound under
//!   the test profile), which is what lets the point formulas in
//!   [`crate::edwards`] skip a carry chain per addition.
//!
//! Cost model used throughout the crate docs: one `mul` = 1 **M** (25 wide
//! products), one `square` = 1 **S** ≈ 0.7 M (15 wide products);
//! additions are not counted. [`Fe::invert`] and the `(p−5)/8` power behind
//! [`Fe::sqrt_ratio`] are fixed addition chains of 254 S + 11 M and
//! 252 S + 11 M (≈ 190 M each) instead of the ~250 S + ~250 M of the
//! generic square-and-multiply [`Fe::pow`], which remains for the
//! one-off constant `sqrt(−1)` and as the chains' test oracle.

use std::fmt;

const MASK: u64 = (1 << 51) - 1;

/// A field element of GF(2^255 − 19).
#[derive(Clone, Copy)]
pub struct Fe(pub [u64; 5]);

/// Builds the little-endian byte encoding of `2^k − m` (used for the
/// fixed exponents: p−2, (p−5)/8, (p−1)/4).
pub(crate) fn pow2k_minus(k: u32, m: u64) -> [u8; 32] {
    let mut b = [0u8; 32];
    b[(k / 8) as usize] = 1 << (k % 8);
    // Subtract m with borrow propagation.
    let mut borrow = m;
    for byte in b.iter_mut() {
        if borrow == 0 {
            break;
        }
        let cur = *byte as i64 - (borrow & 0xff) as i64;
        borrow >>= 8;
        if cur < 0 {
            *byte = (cur + 256) as u8;
            borrow += 1;
        } else {
            *byte = cur as u8;
        }
    }
    b
}

impl Fe {
    /// Additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// Multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Small integer constructor.
    pub fn from_u64(v: u64) -> Fe {
        let mut f = Fe::ZERO;
        f.0[0] = v & MASK;
        f.0[1] = v >> 51;
        f
    }

    /// Decodes 32 little-endian bytes; bit 255 is ignored (ed25519 stores
    /// the x-sign there).
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let mut w = [0u64; 4];
        for (i, c) in bytes.chunks_exact(8).enumerate() {
            w[i] = u64::from_le_bytes(c.try_into().unwrap());
        }
        let limb = |bit: usize| -> u64 {
            let word = bit / 64;
            let shift = bit % 64;
            let mut v = w[word] >> shift;
            if shift > 13 && word + 1 < 4 {
                v |= w[word + 1] << (64 - shift);
            }
            v & MASK
        };
        Fe([limb(0), limb(51), limb(102), limb(153), limb(204)])
    }

    /// Canonical (fully reduced) 32-byte little-endian encoding.
    pub fn to_bytes(self) -> [u8; 32] {
        let h = self.freeze();
        let mut w = [0u64; 4];
        // Pack 51-bit limbs back into 64-bit words.
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut wi = 0;
        for limb in h {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 64 && wi < 4 {
                w[wi] = acc as u64;
                acc >>= 64;
                acc_bits -= 64;
                wi += 1;
            }
        }
        if wi < 4 {
            w[wi] = acc as u64;
        }
        let mut out = [0u8; 32];
        for (i, word) in w.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Weak carry pass: brings all limbs under 2^52 (given inputs < 2^63).
    fn weak_reduce(mut self) -> Fe {
        let mut c;
        c = self.0[0] >> 51;
        self.0[0] &= MASK;
        self.0[1] += c;
        c = self.0[1] >> 51;
        self.0[1] &= MASK;
        self.0[2] += c;
        c = self.0[2] >> 51;
        self.0[2] &= MASK;
        self.0[3] += c;
        c = self.0[3] >> 51;
        self.0[3] &= MASK;
        self.0[4] += c;
        c = self.0[4] >> 51;
        self.0[4] &= MASK;
        self.0[0] += c * 19;
        self
    }

    /// Full reduction to the canonical representative in `[0, p)`.
    fn freeze(self) -> [u64; 5] {
        let mut h = self.weak_reduce().weak_reduce().0;
        // h < 2^255 + small; one more conditional fold of bit 255.
        let top = h[4] >> 51;
        h[4] &= MASK;
        h[0] += top * 19;
        // Now h < 2^255. q = 1 iff h >= p, computed by propagating +19.
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        // Subtract q*p = add q*19 and drop bit 255.
        h[0] += 19 * q;
        let mut c = h[0] >> 51;
        h[0] &= MASK;
        h[1] += c;
        c = h[1] >> 51;
        h[1] &= MASK;
        h[2] += c;
        c = h[2] >> 51;
        h[2] &= MASK;
        h[3] += c;
        c = h[3] >> 51;
        h[3] &= MASK;
        h[4] += c;
        h[4] &= MASK; // drops the 2^255 bit, completing the subtraction
        h
    }

    /// `self + rhs`, without a carry pass: the result is *loose* (see the
    /// module docs) and may be fed to `mul`/`square`/`sub` directly.
    pub fn add(self, rhs: Fe) -> Fe {
        Fe([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
            self.0[4] + rhs.0[4],
        ])
    }

    /// `self - rhs` (adds 16p first so limbs never underflow for a loose
    /// `rhs`); the result is reduced.
    pub fn sub(self, rhs: Fe) -> Fe {
        const P16: [u64; 5] = [
            (MASK - 18) * 16, // 16*(2^51 - 19)
            MASK * 16,        // 16*(2^51 - 1)
            MASK * 16,
            MASK * 16,
            MASK * 16,
        ];
        debug_assert!(rhs.is_loose());
        Fe([
            self.0[0] + P16[0] - rhs.0[0],
            self.0[1] + P16[1] - rhs.0[1],
            self.0[2] + P16[2] - rhs.0[2],
            self.0[3] + P16[3] - rhs.0[3],
            self.0[4] + P16[4] - rhs.0[4],
        ])
        .weak_reduce()
    }

    /// Whether every limb is under the 2^54 bound `mul`/`square`/`sub`
    /// accept.
    fn is_loose(self) -> bool {
        self.0.iter().all(|&l| l < 1 << 54)
    }

    /// Carries five 128-bit column sums into a reduced element. With loose
    /// inputs the top column has no 19-fold term and stays under 2^111, so
    /// its carry times 19 fits a `u64`.
    fn carry_wide(r: [u128; 5]) -> Fe {
        let [r0, r1, r2, r3, r4] = r;
        let mut out = [0u64; 5];
        let mut c: u128;
        c = r0 >> 51;
        out[0] = (r0 as u64) & MASK;
        let r1 = r1 + c;
        c = r1 >> 51;
        out[1] = (r1 as u64) & MASK;
        let r2 = r2 + c;
        c = r2 >> 51;
        out[2] = (r2 as u64) & MASK;
        let r3 = r3 + c;
        c = r3 >> 51;
        out[3] = (r3 as u64) & MASK;
        let r4 = r4 + c;
        c = r4 >> 51;
        out[4] = (r4 as u64) & MASK;
        out[0] += (c as u64) * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK;
        Fe(out)
    }

    /// `-self`.
    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// `self * rhs` (schoolbook with the 19-fold wraparound).
    pub fn mul(self, rhs: Fe) -> Fe {
        debug_assert!(self.is_loose() && rhs.is_loose());
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = rhs.0;
        // Loose limbs times 19 stay under 2^59.
        let (b1_19, b2_19, b3_19, b4_19) = (b1 * 19, b2 * 19, b3 * 19, b4 * 19);
        Fe::carry_wide([
            m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19),
            m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19),
            m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19),
            m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19),
            m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
        ])
    }

    /// `self^2`: the 25 products of `mul` fold to 15 by symmetry.
    pub fn square(self) -> Fe {
        debug_assert!(self.is_loose());
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let [a0, a1, a2, a3, a4] = self.0;
        let (a3_19, a4_19) = (a3 * 19, a4 * 19);
        Fe::carry_wide([
            m(a0, a0) + 2 * (m(a1, a4_19) + m(a2, a3_19)),
            m(a3, a3_19) + 2 * (m(a0, a1) + m(a2, a4_19)),
            m(a1, a1) + 2 * (m(a0, a2) + m(a4, a3_19)),
            m(a4, a4_19) + 2 * (m(a0, a3) + m(a1, a2)),
            m(a2, a2) + 2 * (m(a0, a4) + m(a1, a3)),
        ])
    }

    /// `self^(2^k)`: `k` successive squarings.
    fn square_times(self, k: u32) -> Fe {
        (0..k).fold(self, |acc, _| acc.square())
    }

    /// `self^exp` for a little-endian 256-bit exponent.
    pub fn pow(self, exp_le: &[u8; 32]) -> Fe {
        let mut acc = Fe::ONE;
        for byte in exp_le.iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.square();
                if (byte >> bit) & 1 == 1 {
                    acc = acc.mul(self);
                }
            }
        }
        acc
    }

    /// The shared prefix of the two fixed-exponent chains: returns
    /// `(self^(2^250 − 1), self^11)` in 249 S + 10 M (the classic ref10
    /// ladder 2^5−1, 2^10−1, 2^20−1, 2^40−1, 2^50−1, 2^100−1, 2^200−1).
    fn pow_2_250_minus_1(self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.square_times(2).mul(self);
        let z11 = z9.mul(z2);
        let z_5_0 = z11.square().mul(z9);
        let z_10_0 = z_5_0.square_times(5).mul(z_5_0);
        let z_20_0 = z_10_0.square_times(10).mul(z_10_0);
        let z_40_0 = z_20_0.square_times(20).mul(z_20_0);
        let z_50_0 = z_40_0.square_times(10).mul(z_10_0);
        let z_100_0 = z_50_0.square_times(50).mul(z_50_0);
        let z_200_0 = z_100_0.square_times(100).mul(z_100_0);
        let z_250_0 = z_200_0.square_times(50).mul(z_50_0);
        (z_250_0, z11)
    }

    /// Multiplicative inverse via Fermat: `self^(p−2)`, `p − 2 =
    /// 2^255 − 21 = (2^250 − 1)·2^5 + 11`. `1/0` is defined as 0 (the
    /// usual convention; callers guard zero explicitly).
    pub fn invert(self) -> Fe {
        let (z_250_0, z11) = self.pow_2_250_minus_1();
        z_250_0.square_times(5).mul(z11)
    }

    /// `self^((p−5)/8)`, `(p − 5)/8 = 2^252 − 3 = (2^250 − 1)·2^2 + 1` —
    /// the power behind [`Fe::sqrt_ratio`].
    pub(crate) fn pow22523(self) -> Fe {
        let (z_250_0, _) = self.pow_2_250_minus_1();
        z_250_0.square_times(2).mul(self)
    }

    /// Inverts every element of `values` in place with one [`Fe::invert`]
    /// and `3·(len − 1)` multiplications (Montgomery's trick). No element
    /// may be zero.
    pub(crate) fn batch_invert(values: &mut [Fe]) {
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = Fe::ONE;
        for v in values.iter() {
            debug_assert!(!v.is_zero());
            prefix.push(acc);
            acc = acc.mul(*v);
        }
        let mut inv = acc.invert();
        for (v, before) in values.iter_mut().zip(prefix).rev() {
            let next = inv.mul(*v);
            *v = inv.mul(before);
            inv = next;
        }
    }

    /// True iff the canonical encoding is the zero element.
    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// The "sign" of a field element: the least significant bit of its
    /// canonical encoding (RFC 8032's x-coordinate sign).
    pub fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// `sqrt(-1) = 2^((p-1)/4)`, computed from its definition.
    pub fn sqrt_m1() -> Fe {
        use std::sync::OnceLock;
        static CELL: OnceLock<Fe> = OnceLock::new();
        *CELL.get_or_init(|| Fe::from_u64(2).pow(&pow2k_minus(253, 5)))
    }

    /// Computes `sqrt(u/v)` if it exists: returns `(true, x)` with
    /// `v·x² = u`, else `(false, _)`. The branch on `±u` follows RFC 8032
    /// §5.1.3.
    pub fn sqrt_ratio(u: Fe, v: Fe) -> (bool, Fe) {
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        // candidate = u * v^3 * (u * v^7)^((p-5)/8)
        let cand = u.mul(v3).mul(u.mul(v7).pow22523());
        let check = v.mul(cand.square());
        if check == u {
            (true, cand)
        } else if check == u.neg() {
            (true, cand.mul(Fe::sqrt_m1()))
        } else {
            (false, cand)
        }
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}
impl Eq for Fe {}

impl fmt::Debug for Fe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fe(")?;
        for b in self.to_bytes().iter().rev() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe(v: u64) -> Fe {
        Fe::from_u64(v)
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(fe(3).add(fe(4)), fe(7));
        assert_eq!(fe(10).sub(fe(4)), fe(6));
        assert_eq!(fe(6).mul(fe(7)), fe(42));
        assert_eq!(fe(5).square(), fe(25));
    }

    #[test]
    fn subtraction_wraps_mod_p() {
        // 0 - 1 = p - 1; (p-1) + 1 = 0.
        let pm1 = Fe::ZERO.sub(Fe::ONE);
        assert_eq!(pm1.add(Fe::ONE), Fe::ZERO);
        assert!(!pm1.is_zero());
    }

    #[test]
    fn inverse_of_two_is_known_value() {
        // 1/2 mod p = 2^254 - 9; LE bytes: f7, ff*30, 3f.
        let mut expect = [0xffu8; 32];
        expect[0] = 0xf7;
        expect[31] = 0x3f;
        assert_eq!(fe(2).invert().to_bytes(), expect);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        assert_eq!(i.square(), Fe::ONE.neg());
    }

    #[test]
    fn sqrt_ratio_finds_roots() {
        // 4/1 has sqrt 2 (or -2).
        let (ok, r) = Fe::sqrt_ratio(fe(4), Fe::ONE);
        assert!(ok);
        assert!(r == fe(2) || r == fe(2).neg());
        // 2 is a non-residue mod p (p ≡ 5 mod 8): sqrt(2/1) must fail.
        let (ok2, _) = Fe::sqrt_ratio(fe(2), Fe::ONE);
        assert!(!ok2);
    }

    #[test]
    fn bytes_roundtrip_and_bit255_ignored() {
        let x = fe(123456789).mul(fe(987654321));
        let b = x.to_bytes();
        assert_eq!(Fe::from_bytes(&b), x);
        let mut b2 = b;
        b2[31] |= 0x80;
        assert_eq!(Fe::from_bytes(&b2), x);
    }

    fn arb_fe() -> impl Strategy<Value = Fe> {
        any::<[u8; 32]>().prop_map(|b| Fe::from_bytes(&b))
    }

    /// An element with limbs anywhere under the loose bound (2^54), not
    /// just the 51 bits a decoder produces.
    fn arb_loose_fe() -> impl Strategy<Value = Fe> {
        any::<[u64; 5]>().prop_map(|l| Fe(l.map(|x| x >> 10)))
    }

    #[test]
    fn fixed_chains_match_the_generic_power_on_edge_values() {
        let pm1 = Fe::ZERO.sub(Fe::ONE);
        for a in [Fe::ZERO, Fe::ONE, fe(2), fe(19), pm1, Fe::sqrt_m1()] {
            assert_eq!(a.invert(), a.pow(&pow2k_minus(255, 21)));
            assert_eq!(a.pow22523(), a.pow(&pow2k_minus(252, 3)));
        }
        assert_eq!(Fe::ZERO.invert(), Fe::ZERO);
    }

    #[test]
    fn loose_extremes_multiply_without_overflow() {
        // Every limb at the loose bound: the largest operands mul/square
        // may be handed (overflow checks are on under the test profile).
        let max = Fe([(1 << 54) - 1; 5]);
        let canonical = Fe::from_bytes(&max.to_bytes());
        assert_eq!(max.mul(max), canonical.mul(canonical));
        assert_eq!(max.square(), canonical.mul(canonical));
        assert_eq!(Fe::ZERO.sub(max), canonical.neg());
    }

    #[test]
    fn batch_invert_matches_invert() {
        let mut values: Vec<Fe> = (1..40)
            .map(|i| fe(i * i + 7).mul(fe(0xffff_ffff)))
            .collect();
        let want: Vec<Fe> = values.iter().map(|v| v.invert()).collect();
        Fe::batch_invert(&mut values);
        assert_eq!(values, want);
        Fe::batch_invert(&mut []);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::DIFFERENTIAL_CASES))]

        #[test]
        fn mul_commutes(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a.mul(b), b.mul(a));
        }

        #[test]
        fn mul_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
        }

        #[test]
        fn distributes(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        }

        #[test]
        fn add_sub_inverse(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a.add(b).sub(b), a);
        }

        #[test]
        fn field_inverse(a in arb_fe()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a.mul(a.invert()), Fe::ONE);
        }

        #[test]
        fn square_matches_mul(a in arb_loose_fe()) {
            prop_assert_eq!(a.square(), a.mul(a));
        }

        #[test]
        fn loose_operands_give_the_canonical_product(a in arb_loose_fe(), b in arb_loose_fe()) {
            let (ca, cb) = (Fe::from_bytes(&a.to_bytes()), Fe::from_bytes(&b.to_bytes()));
            prop_assert_eq!(a.mul(b), ca.mul(cb));
            prop_assert_eq!(a.sub(b), ca.sub(cb));
        }

        #[test]
        fn fixed_chains_match_the_generic_power(a in arb_fe()) {
            prop_assert_eq!(a.invert(), a.pow(&pow2k_minus(255, 21)));
            prop_assert_eq!(a.pow22523(), a.pow(&pow2k_minus(252, 3)));
        }

        #[test]
        fn canonical_roundtrip(a in arb_fe()) {
            prop_assert_eq!(Fe::from_bytes(&a.to_bytes()), a);
        }

        #[test]
        fn residues_have_roots(a in arb_fe()) {
            // a^2 is always a residue; sqrt_ratio must succeed and square
            // back to a^2.
            let sq = a.square();
            let (ok, r) = Fe::sqrt_ratio(sq, Fe::ONE);
            prop_assert!(ok);
            prop_assert_eq!(r.square(), sq);
        }
    }
}
