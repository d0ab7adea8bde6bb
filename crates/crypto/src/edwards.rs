//! The twisted Edwards curve `-x² + y² = 1 + d·x²·y²` over GF(2^255−19)
//! (edwards25519), and every scalar multiplication the signature scheme
//! needs.
//!
//! # Coordinates
//!
//! [`Point`] is the extended homogeneous form `(X:Y:Z:T)` with `x = X/Z`,
//! `y = Y/Z`, `T = XY/Z`. Three crate-private forms keep the hot loops from
//! computing products nobody reads (costs in field multiplications **M**
//! and squarings **S**, see [`crate::field`]):
//!
//! * `Projective` `(X:Y:Z)` — what a doubling reads (4 S, no `T` needed);
//! * `Completed` `((X:Z),(Y:T))` — what a doubling or addition *produces*;
//!   3 M turn it into a `Projective` (a doubling follows) and 4 M into a
//!   [`Point`] (an addition follows), so a run of doublings costs
//!   4 S + 3 M each instead of the 4 S + 4 M (+ a repeated `Z²`) of
//!   doubling in extended coordinates throughout;
//! * table operands: `Cached` `(Y+X, Y−X, Z, 2dT)` for tables built for
//!   one call (addition 4 M + 4 M to come back to a `Point`), and `Niels`
//!   `(y+x, y−x, 2dxy)` — the same with `Z = 1`, one batched inversion
//!   away — for tables built once: the base point's and each keyring
//!   key's (addition 3 M + 4 M).
//!
//! Formulas: "add-2008-hwcd-3" (unified addition for a = −1) and
//! "dbl-2008-hwcd", split at the completed form as above. Unified means
//! the addition is also correct for doubling, the identity and the
//! small-order points a hostile `R` may decode to.
//!
//! # Tables
//!
//! Nothing is transcribed: the curve constant `d = −121665/121666`, the
//! base point `B` (`y = 4/5`, x even) and both base-point tables are
//! computed from their definitions on first use and kept in `OnceLock`s.
//! Build times are medians on a 2-core Xeon VM with the host quiet (a busy
//! host reads up to 20% slower):
//!
//! | table | entries | bytes | built | used by |
//! |---|---|---|---|---|
//! | radix-16 `j·256^i·B`, `j = 1..8`, `i = 0..31` | 256 `Niels` | 30 720 | once per process image, by the first [`Point::mul_base`]: ≈ 210 µs | [`Point::mul_base`] (key generation, signing): 64 table additions + 4 doublings, ≈ 8 µs |
//! | split width-8 odd multiples of `B` and `2^128·B` (`SplitMultiples`) | 2 × 64 `Niels` | 15 360 | once per process image, by the first verification: ≈ 60 µs | the `[S]B` term of every verification |
//! | split width-8 odd multiples of a key `A` and `2^128·A` | 2 × 64 `Niels` | 15 360 per key | once per key, `n` and process image, by [`crate::Keyring::for_system`]: ≈ 53 µs with the decoding | the `[k]A` term of every verification against a keyring |
//! | width-5 odd multiples `1·P, 3·P, …, 15·P` (`OddMultiples`) | 8 `Cached` | 1 280 | per use: ≈ 2 µs | each signature's `R` in a batch; a bare key's `A`; [`Point::mul`] and [`multiscalar_mul`] |
//!
//! # Scalar multiplications
//!
//! * [`Point::mul_base`] — fixed base, signed radix-16 digits.
//! * `straus` — the one shared-doubling-chain loop behind everything
//!   else. Short terms walk a width-5 non-adjacent form of their whole
//!   scalar over an `OddMultiples` table (a 253-bit scalar costs ≈ 42
//!   additions instead of ≈ 126). Fixed terms split their scalar at bit
//!   128 and walk two width-8 forms over a `SplitMultiples` (≈ 14
//!   additions per half), so a chain with no long short term is ≈ 128
//!   positions long. [`Point::mul`] and [`multiscalar_mul`] build
//!   short-term tables and call it.
//!
//! All of it is **variable-time**: digits that are zero are skipped and
//! table entries are fetched by secret-dependent index, in signing as well
//! as in verification. That is acceptable for a research simulator whose
//! keys are derived from public process ids; it is not acceptable for
//! deployment.
//!
//! The former bit-by-bit double-and-add routines survive only inside this
//! file's test module, as oracles the differential tests compare against.

use crate::field::Fe;
use crate::scalar::Scalar;
use std::sync::OnceLock;

/// A point on edwards25519 in extended coordinates.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// `(X:Y:Z)` with `x = X/Z`, `y = Y/Z`: the input of a doubling.
#[derive(Clone, Copy)]
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// `((X:Z),(Y:T))` with `x = X/Z`, `y = Y/T`: the output of a doubling or
/// an addition, before anyone has decided which products are needed next.
#[derive(Clone, Copy)]
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared as the second operand of an addition:
/// `(Y+X, Y−X, Z, 2d·T)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// [`Cached`] for an affine point (`Z = 1`): `(y+x, y−x, 2d·x·y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

/// Curve constant d.
pub fn d() -> Fe {
    static CELL: OnceLock<Fe> = OnceLock::new();
    *CELL.get_or_init(|| {
        Fe::from_u64(121665)
            .neg()
            .mul(Fe::from_u64(121666).invert())
    })
}

/// 2·d, used by the unified addition formula.
fn d2() -> Fe {
    static CELL: OnceLock<Fe> = OnceLock::new();
    *CELL.get_or_init(|| d().add(d()))
}

impl Projective {
    /// dbl-2008-hwcd up to the completed form: 4 S.
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let xy2 = self.x.add(self.y).square().sub(xx.add(yy)); // 2XY
        let yy_plus_xx = yy.add(xx);
        let yy_minus_xx = yy.sub(xx);
        Completed {
            x: xy2,
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz.add(zz).sub(yy_minus_xx),
        }
    }
}

impl Completed {
    const IDENTITY: Completed = Completed {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ONE,
    };

    /// 3 M: enough for a doubling to follow.
    fn to_projective(self) -> Projective {
        Projective {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
        }
    }

    /// 4 M: the full extended point, as an addition needs.
    fn to_point(self) -> Point {
        Point {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }
}

impl Cached {
    /// `self` or `−self`, by the sign of a recoded scalar digit.
    fn signed(self, digit: i8) -> Cached {
        if digit >= 0 {
            return self;
        }
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

impl Niels {
    /// `self` or `−self`, by the sign of a recoded scalar digit.
    fn signed(self, digit: i8) -> Niels {
        if digit >= 0 {
            return self;
        }
        Niels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }

    /// Converts many points at once, sharing one field inversion.
    fn batch_from(points: &[Point]) -> Vec<Niels> {
        let mut zinv: Vec<Fe> = points.iter().map(|p| p.z).collect();
        Fe::batch_invert(&mut zinv);
        points
            .iter()
            .zip(zinv)
            .map(|(p, zinv)| {
                let x = p.x.mul(zinv);
                let y = p.y.mul(zinv);
                Niels {
                    y_plus_x: y.add(x),
                    y_minus_x: y.sub(x),
                    xy2d: x.mul(y).mul(d2()),
                }
            })
            .collect()
    }
}

/// The width-5 table `[1·P, 3·P, 5·P, …, 15·P]` of one point, in the form
/// additions read. 1 280 bytes; 1 doubling + 7 additions to build.
#[derive(Debug, Clone)]
pub(crate) struct OddMultiples([Cached; 8]);

impl OddMultiples {
    pub(crate) fn new(p: &Point) -> OddMultiples {
        let points = odd_multiples(p, 8);
        OddMultiples(std::array::from_fn(|i| points[i].to_cached()))
    }

    /// `digit·P` for an odd `digit` of a width-5 non-adjacent form
    /// (`|digit| ≤ 15`).
    fn select(&self, digit: i8) -> Cached {
        self.0[usize::from(digit.unsigned_abs() / 2)].signed(digit)
    }
}

/// Width-8 tables of a fixed point `P` for scalars split at bit 128
/// (`k = lo + 2^128·hi`, see `Scalar::split_128`): entry `i` of `low`
/// is `(2i + 1)·P` and of `high` `(2i + 1)·2^128·P`, `i` in `0..64`, both
/// affine. 15 360 bytes; built once per key (see the module's tables).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SplitMultiples {
    low: Vec<Niels>,
    high: Vec<Niels>,
}

impl SplitMultiples {
    pub(crate) fn new(p: &Point) -> SplitMultiples {
        let mut points = odd_multiples(p, 64);
        points.extend(odd_multiples(&p.mul_by_pow2(128), 64));
        let niels = Niels::batch_from(&points);
        let (low, high) = niels.split_at(64);
        SplitMultiples {
            low: low.to_vec(),
            high: high.to_vec(),
        }
    }
}

/// `digit·P` from a width-8 table of `P`'s odd multiples, for an odd
/// `digit` of a width-8 non-adjacent form (`|digit| ≤ 127`).
fn select_wide(table: &[Niels], digit: i8) -> Niels {
    table[usize::from(digit.unsigned_abs() / 2)].signed(digit)
}

/// `[1·P, 3·P, …, (2·count − 1)·P]`.
fn odd_multiples(p: &Point, count: usize) -> Vec<Point> {
    let p2 = p.double().to_cached();
    let mut points = Vec::with_capacity(count);
    let mut multiple = *p;
    points.push(multiple);
    for _ in 1..count {
        multiple = multiple.add_cached(&p2).to_point();
        points.push(multiple);
    }
    points
}

/// The base point's [`SplitMultiples`]: the `[S]B` term of every
/// verification.
pub(crate) fn base_split() -> &'static SplitMultiples {
    static CELL: OnceLock<SplitMultiples> = OnceLock::new();
    CELL.get_or_init(|| SplitMultiples::new(&Point::basepoint()))
}

/// Radix-16 table of the base point: entry `8·i + (j − 1)` is
/// `j·256^i·B` for `i` in `0..32`, `j` in `1..=8`.
fn base_radix16() -> &'static [Niels] {
    static CELL: OnceLock<Vec<Niels>> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut points = Vec::with_capacity(256);
        let mut power = Point::basepoint(); // 256^i·B
        for _ in 0..32 {
            let step = power.to_cached();
            let mut multiple = power;
            points.push(multiple);
            for _ in 1..8 {
                multiple = multiple.add_cached(&step).to_point();
                points.push(multiple);
            }
            power = power.mul_by_pow2(8);
        }
        Niels::batch_from(&points)
    })
}

impl Point {
    /// The identity element (0, 1).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point `B` (y = 4/5, sign bit 0).
    pub fn basepoint() -> Point {
        static CELL: OnceLock<Point> = OnceLock::new();
        *CELL.get_or_init(|| {
            let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
            let mut enc = y.to_bytes();
            enc[31] &= 0x7f; // sign bit 0
            Point::decompress(&enc).expect("base point must decompress")
        })
    }

    fn to_projective(self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    /// 1 M.
    fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(d2()),
        }
    }

    /// add-2008-hwcd-3 up to the completed form: 4 M.
    fn add_cached(&self, other: &Cached) -> Completed {
        let pp = self.y.add(self.x).mul(other.y_plus_x);
        let mm = self.y.sub(self.x).mul(other.y_minus_x);
        let tt2d = self.t.mul(other.t2d);
        let zz = self.z.mul(other.z);
        let zz2 = zz.add(zz);
        Completed {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: zz2.add(tt2d),
            t: zz2.sub(tt2d),
        }
    }

    /// [`Point::add_cached`] with `Z₂ = 1`: 3 M.
    fn add_niels(&self, other: &Niels) -> Completed {
        let pp = self.y.add(self.x).mul(other.y_plus_x);
        let mm = self.y.sub(self.x).mul(other.y_minus_x);
        let txy2d = self.t.mul(other.xy2d);
        let z2 = self.z.add(self.z);
        Completed {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: z2.add(txy2d),
            t: z2.sub(txy2d),
        }
    }

    /// Point addition (unified: also valid for doubling and identity).
    pub fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.to_cached()).to_point()
    }

    /// Point doubling (dbl-2008-hwcd, a = −1).
    pub fn double(&self) -> Point {
        self.to_projective().double().to_point()
    }

    /// `-P`.
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// `2^k·P` for `k ≥ 1`: `k` doublings, only the last one completed to
    /// a full point.
    fn mul_by_pow2(&self, k: u32) -> Point {
        let mut acc = self.to_projective().double();
        for _ in 1..k {
            acc = acc.to_projective().double();
        }
        acc.to_point()
    }

    /// `8·P`: clears the cofactor, sending every small-order component to
    /// the identity.
    pub(crate) fn mul_by_cofactor(&self) -> Point {
        self.mul_by_pow2(3)
    }

    /// Scalar multiplication `k·P` (width-5 non-adjacent form over a
    /// freshly built `OddMultiples` table; variable-time).
    pub fn mul(&self, k: &Scalar) -> Point {
        multiscalar_mul(&[(*k, *self)])
    }

    /// `k·B` for the base point: `k = Σ eᵢ·16^i` with signed digits
    /// `eᵢ ∈ [−8, 8)`; the odd-position digits are summed from the
    /// radix-16 table first, multiplied by 16, and the even-position
    /// digits added — 64 table additions and 4 doublings, no per-bit work.
    pub fn mul_base(k: &Scalar) -> Point {
        let table = base_radix16();
        let digits = k.radix16();
        let add_digits = |mut acc: Point, parity: usize| -> Point {
            for (i, &digit) in digits.iter().enumerate().skip(parity).step_by(2) {
                let Some(j) = usize::from(digit.unsigned_abs()).checked_sub(1) else {
                    continue; // zero digit
                };
                let entry = table[8 * (i / 2) + j].signed(digit);
                acc = acc.add_niels(&entry).to_point();
            }
            acc
        };
        let odd = add_digits(Point::identity(), 1);
        add_digits(odd.mul_by_pow2(4), 0)
    }

    /// Compressed 32-byte encoding: `y` little-endian with the sign of
    /// `x` in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompression per RFC 8032 §5.1.3. Returns `None` for encodings
    /// that are not points on the curve.
    pub fn decompress(enc: &[u8; 32]) -> Option<Point> {
        let sign = enc[31] >> 7 == 1;
        let y = Fe::from_bytes(enc); // ignores bit 255
                                     // x² = (y² − 1) / (d·y² + 1)
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = d().mul(yy).add(Fe::ONE);
        let (ok, mut x) = Fe::sqrt_ratio(u, v);
        if !ok {
            return None;
        }
        if x.is_zero() && sign {
            return None; // "negative zero" is invalid
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// Affine equality (cross-multiplied to avoid inversions).
    pub fn eq_point(&self, other: &Point) -> bool {
        self.x.mul(other.z) == other.x.mul(self.z) && self.y.mul(other.z) == other.y.mul(self.z)
    }

    /// Whether this is the identity: `X = 0` and `Y = Z`.
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y == self.z
    }

    /// Checks the affine curve equation — used in tests as an internal
    /// consistency oracle.
    pub fn on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let lhs = y.square().sub(x.square());
        let rhs = Fe::ONE.add(d().mul(x.square()).mul(y.square()));
        lhs == rhs && self.t.mul(zinv) == x.mul(y)
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Point) -> bool {
        self.eq_point(other)
    }
}
impl Eq for Point {}

/// Simultaneous multi-scalar multiplication `Σ kᵢ·Pᵢ` (Straus'
/// interleaving over width-5 non-adjacent forms: one shared doubling
/// chain instead of one per term).
pub fn multiscalar_mul(terms: &[(Scalar, Point)]) -> Point {
    let tables: Vec<OddMultiples> = terms.iter().map(|(_, p)| OddMultiples::new(p)).collect();
    let terms: Vec<(Scalar, &OddMultiples)> =
        terms.iter().map(|(k, _)| *k).zip(tables.iter()).collect();
    straus(&terms, &[])
}

/// `Σ kᵢ·Pᵢ + Σ cⱼ·Qⱼ` over one shared doubling chain — the one loop
/// behind single verification, batch verification, [`Point::mul`] and
/// [`multiscalar_mul`].
///
/// * `short` terms read a width-5 [`OddMultiples`] table built for the
///   call (a signature's `R`, a bare key, a [`multiscalar_mul`] point);
///   their scalars may have any length.
/// * `fixed` terms read a [`SplitMultiples`] built once (a keyring key,
///   the base point): each scalar is split into `lo + 2^128·hi`, and each
///   half walks a width-8 non-adjacent form over its own table.
///
/// Each position costs one doubling (4 S + 3 M) plus, per non-adjacent
/// form with a digit there, one addition (8 M from a `Cached` entry, 7 M
/// from a `Niels` one). Positions above every form's top digit are
/// skipped, so when every short scalar is at most 128 bits long — as in
/// verification against a keyring — the chain is ≈ 128 positions long
/// instead of 253, for the same number of additions.
pub(crate) fn straus(
    short: &[(Scalar, &OddMultiples)],
    fixed: &[(Scalar, &SplitMultiples)],
) -> Point {
    let short: Vec<([i8; 256], &OddMultiples)> = short
        .iter()
        .map(|(k, table)| (k.non_adjacent_form(5), *table))
        .collect();
    let fixed: Vec<([i8; 256], &[Niels])> = fixed
        .iter()
        .flat_map(|(k, tables)| {
            let (lo, hi) = k.split_128();
            [
                (lo.non_adjacent_form(8), tables.low.as_slice()),
                (hi.non_adjacent_form(8), tables.high.as_slice()),
            ]
        })
        .collect();
    let top = short
        .iter()
        .map(|(naf, _)| naf)
        .chain(fixed.iter().map(|(naf, _)| naf))
        .filter_map(|naf| naf.iter().rposition(|&digit| digit != 0))
        .max();
    let Some(top) = top else {
        return Point::identity();
    };
    let mut acc = Completed::IDENTITY;
    for i in (0..=top).rev() {
        acc = acc.to_projective().double();
        for (naf, table) in &short {
            if naf[i] != 0 {
                acc = acc.to_point().add_cached(&table.select(naf[i]));
            }
        }
        for (naf, table) in &fixed {
            if naf[i] != 0 {
                acc = acc.to_point().add_niels(&select_wide(table, naf[i]));
            }
        }
    }
    acc.to_point()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-table scalar multiplication: left-to-right bit-by-bit
    /// double-and-add. Kept as the oracle every new path is compared with.
    fn mul_bitwise(p: &Point, k: &Scalar) -> Point {
        let mut acc = Point::identity();
        for byte in k.to_bytes().iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.double();
                if (byte >> bit) & 1 == 1 {
                    acc = acc.add(p);
                }
            }
        }
        acc
    }

    /// The pre-table Straus loop (bit-by-bit), likewise an oracle.
    fn multiscalar_mul_bitwise(terms: &[(Scalar, Point)]) -> Point {
        let bytes: Vec<[u8; 32]> = terms.iter().map(|(k, _)| k.to_bytes()).collect();
        let mut acc = Point::identity();
        for bit in (0..256).rev() {
            acc = acc.double();
            for (i, (_, p)) in terms.iter().enumerate() {
                if (bytes[i][bit / 8] >> (bit % 8)) & 1 == 1 {
                    acc = acc.add(p);
                }
            }
        }
        acc
    }

    fn scalar_from_limbs(limbs: [u64; 4]) -> Scalar {
        let mut bytes = [0u8; 32];
        for (i, limb) in limbs.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        Scalar::from_canonical_bytes(&bytes).expect("edge scalars are below ℓ")
    }

    /// Scalars at the corners of the digit recodings: 0, 1, 2, ℓ−1,
    /// 2^252−1 and 2^252−2^j (all-ones digits: the recoding carry ripples
    /// through every position and out of the top window), 0x77…7 and
    /// 0x88…8 (the largest carry-free and smallest carrying radix-16
    /// digit everywhere), alternating bits, a lone middle limb, 2^252;
    /// and around the split at bit 128: 2^128 − 1, 2^128, 2^128 + 1, and
    /// ones in bits 120–127 (the width-8 form of the low half carries
    /// into position 128), alone and under a high half.
    fn edge_scalars() -> Vec<Scalar> {
        let mut l_minus_1 = crate::scalar::L;
        l_minus_1[0] -= 1;
        let mut out = vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(2),
            Scalar::from_u64(15),
            Scalar::from_u64(16),
            Scalar::from_u64(u64::MAX),
            scalar_from_limbs(l_minus_1),
            scalar_from_limbs([u64::MAX, u64::MAX, u64::MAX, (1 << 60) - 1]), // 2^252 − 1
            scalar_from_limbs([
                0x7777_7777_7777_7777,
                0x7777_7777_7777_7777,
                0x7777_7777_7777_7777,
                0x0777_7777_7777_7777,
            ]),
            scalar_from_limbs([
                0x8888_8888_8888_8888,
                0x8888_8888_8888_8888,
                0x8888_8888_8888_8888,
                0x0888_8888_8888_8888,
            ]),
            scalar_from_limbs([
                0xaaaa_aaaa_aaaa_aaaa,
                0xaaaa_aaaa_aaaa_aaaa,
                0xaaaa_aaaa_aaaa_aaaa,
                0x0aaa_aaaa_aaaa_aaaa,
            ]),
            scalar_from_limbs([0, 0, u64::MAX, 0]),
            scalar_from_limbs([0, 0, 0, 1 << 60]), // 2^252
            scalar_from_limbs([u64::MAX, u64::MAX, 0, 0]), // 2^128 − 1
            scalar_from_limbs([0, 0, 1, 0]),       // 2^128
            scalar_from_limbs([1, 0, 1, 0]),       // 2^128 + 1
            scalar_from_limbs([0, 0xff << 56, 0, 0]),
            scalar_from_limbs([0, 0xff << 56, 1, 0]),
            scalar_from_limbs([0, 0xff << 56, u64::MAX, (1 << 60) - 1]),
            scalar_from_limbs([u64::MAX, 0xff << 56, 0, 0]),
        ];
        // ℓ − 1 − 2^i for small i: top limbs 0x1000…, low limbs irregular.
        for i in 0..8 {
            out.push(scalar_from_limbs(l_minus_1).sub(Scalar::from_u64(1 << i)));
        }
        // 2^252 − 2^j: ones up to bit 251, so the recoding carry leaves the
        // top window of every width and lands on bit 252.
        for j in [3u32, 4, 7, 8] {
            out.push(scalar_from_limbs([0, 0, 0, 1 << 60]).sub(Scalar::from_u64(1 << j)));
        }
        out
    }

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        any::<[u8; 32]>().prop_map(|b| Scalar::from_bytes_mod_order(&b))
    }

    /// A point with no special structure: `k·B` by the oracle.
    fn arb_point() -> impl Strategy<Value = Point> {
        any::<u64>().prop_map(|k| mul_bitwise(&Point::basepoint(), &Scalar::from_u64(k | 1)))
    }

    #[test]
    fn basepoint_is_on_curve() {
        assert!(Point::basepoint().on_curve());
    }

    #[test]
    fn basepoint_compresses_to_standard_encoding() {
        // The canonical encoding of B: 0x58666...66 (y = 4/5, sign 0).
        let enc = Point::basepoint().compress();
        assert_eq!(enc[31], 0x66);
        assert_eq!(enc[0], 0x58);
        assert!(enc[1..31].iter().all(|&b| b == 0x66));
    }

    #[test]
    fn add_matches_double() {
        let b = Point::basepoint();
        assert_eq!(b.add(&b), b.double());
        assert!(b.double().on_curve());
    }

    #[test]
    fn identity_is_neutral() {
        let b = Point::basepoint();
        assert_eq!(b.add(&Point::identity()), b);
        assert_eq!(Point::identity().add(&b), b);
        assert!(Point::identity().is_identity());
        assert!(Point::identity().double().is_identity());
        assert!(Completed::IDENTITY.to_point().is_identity());
        assert!(!b.is_identity());
    }

    #[test]
    fn negation_cancels() {
        let b = Point::basepoint();
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn cofactor_clearing_kills_exactly_the_small_order_points() {
        // (0, −1) has order 2; B has prime order.
        let mut enc = [0xffu8; 32];
        enc[0] = 0xec;
        enc[31] = 0x7f;
        let order2 = Point::decompress(&enc).expect("(0, −1) is on the curve");
        assert!(!order2.is_identity());
        assert!(order2.double().is_identity());
        assert!(order2.mul_by_cofactor().is_identity());
        let b = Point::basepoint();
        assert_eq!(b.mul_by_cofactor(), mul_bitwise(&b, &Scalar::from_u64(8)));
        assert_eq!(
            b.add(&order2).mul_by_cofactor(),
            mul_bitwise(&b, &Scalar::from_u64(8))
        );
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = Point::basepoint();
        assert!(b.mul(&Scalar::ZERO).is_identity());
        assert_eq!(b.mul(&Scalar::ONE), b);
        assert_eq!(b.mul(&Scalar::from_u64(2)), b.double());
        assert_eq!(b.mul(&Scalar::from_u64(3)), b.double().add(&b));
        assert_eq!(
            b.mul(&Scalar::from_u64(5)),
            b.mul(&Scalar::from_u64(2))
                .add(&b.mul(&Scalar::from_u64(3)))
        );
    }

    #[test]
    fn order_annihilates_basepoint() {
        // (ℓ−1)·B = −B on every path.
        let mut l_minus_1 = crate::scalar::L;
        l_minus_1[0] -= 1;
        let s = scalar_from_limbs(l_minus_1);
        let b = Point::basepoint();
        for p in [Point::mul_base(&s), b.mul(&s), mul_bitwise(&b, &s)] {
            assert_eq!(p, b.neg());
            assert!(p.add(&b).is_identity());
        }
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let mut p = Point::basepoint();
        for _ in 0..20 {
            let enc = p.compress();
            let q = Point::decompress(&enc).unwrap();
            assert_eq!(p, q);
            p = p.add(&Point::basepoint());
        }
    }

    #[test]
    fn bad_encodings_rejected() {
        // y = 2 gives x² = 3/(4d+1); with overwhelming probability not a
        // residue — verified to be rejected.
        let mut enc = [0u8; 32];
        enc[0] = 2;
        // If this particular y happened to be valid the test would need a
        // different y, but it is a fixed known-invalid encoding.
        assert!(Point::decompress(&enc).is_none());
    }

    #[test]
    fn radix16_table_entries_are_the_oracle_multiples() {
        let table = base_radix16();
        assert_eq!(table.len(), 256);
        let mut power = Point::basepoint();
        for i in 0..32 {
            for j in 1..=8u64 {
                let got = Point::identity().add_niels(&table[8 * i + j as usize - 1]);
                let got = got.to_point();
                assert!(got.on_curve(), "entry {i},{j}");
                assert_eq!(got, mul_bitwise(&power, &Scalar::from_u64(j)), "{i},{j}");
            }
            power = mul_bitwise(&power, &Scalar::from_u64(256));
        }
    }

    /// Every entry of both halves of `tables` is the oracle's odd multiple
    /// of `p` or of `2^128·p`, with either sign of the digit.
    fn check_split_tables(p: &Point, tables: &SplitMultiples) {
        let two_128 = Scalar([0, 0, 1, 0]);
        for (half, base, table) in [
            ("low", *p, &tables.low),
            ("high", mul_bitwise(p, &two_128), &tables.high),
        ] {
            assert_eq!(table.len(), 64, "{half}");
            for i in 0..64u8 {
                let digit = 2 * i as i8 + 1;
                let want = mul_bitwise(&base, &Scalar::from_u64(2 * u64::from(i) + 1));
                let got = Point::identity().add_niels(&select_wide(table, digit));
                let got = got.to_point();
                assert!(got.on_curve(), "{half} entry {i}");
                assert_eq!(got, want, "{half} entry {i}");
                let neg = Point::identity().add_niels(&select_wide(table, -digit));
                assert_eq!(neg.to_point(), want.neg(), "{half} entry {i} negated");
            }
        }
    }

    #[test]
    fn base_split_tables_are_the_oracle_multiples() {
        check_split_tables(&Point::basepoint(), base_split());
    }

    #[test]
    fn key_split_tables_are_the_oracle_multiples() {
        let a = mul_bitwise(&Point::basepoint(), &Scalar::from_u64(0xdead_beef));
        check_split_tables(&a, &SplitMultiples::new(&a));
    }

    #[test]
    fn per_point_odd_multiples_are_the_oracle_multiples() {
        let p = mul_bitwise(&Point::basepoint(), &Scalar::from_u64(0xdead_beef));
        let table = OddMultiples::new(&p);
        for (i, entry) in table.0.iter().enumerate() {
            let got = Point::identity().add_cached(entry).to_point();
            assert!(got.on_curve(), "entry {i}");
            assert_eq!(got, mul_bitwise(&p, &Scalar::from_u64(2 * i as u64 + 1)));
        }
        for digit in [-15i8, -1, 1, 7, 15] {
            let got = Point::identity()
                .add_cached(&table.select(digit))
                .to_point();
            let abs = mul_bitwise(&p, &Scalar::from_u64(u64::from(digit.unsigned_abs())));
            assert_eq!(got, if digit < 0 { abs.neg() } else { abs }, "{digit}");
        }
    }

    #[test]
    fn every_path_agrees_with_the_oracle_on_edge_scalars() {
        let b = Point::basepoint();
        let p = mul_bitwise(&b, &Scalar::from_u64(0x1234_5678_9abc_def1));
        let table = OddMultiples::new(&p);
        let split = SplitMultiples::new(&p);
        let edges = edge_scalars();
        for (i, k) in edges.iter().enumerate() {
            let want_b = mul_bitwise(&b, k);
            assert_eq!(Point::mul_base(k), want_b, "mul_base, edge {i}");
            assert!(Point::mul_base(k).on_curve(), "mul_base on curve, edge {i}");
            assert_eq!(b.mul(k), want_b, "mul(B), edge {i}");
            assert_eq!(p.mul(k), mul_bitwise(&p, k), "mul(P), edge {i}");
            // Double-scalar with the base term, pairing each edge with the
            // next one: `P` as a short term and as a fixed one.
            let k2 = edges[(i + 1) % edges.len()];
            let want = mul_bitwise(&p, k).add(&mul_bitwise(&b, &k2));
            let base = (k2, base_split());
            assert_eq!(
                straus(&[(*k, &table)], &[base]),
                want,
                "short + fixed, edge {i}"
            );
            assert_eq!(
                straus(&[], &[(*k, &split), base]),
                want,
                "fixed + fixed, edge {i}"
            );
        }
        let terms: Vec<(Scalar, Point)> = edges
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, mul_bitwise(&b, &Scalar::from_u64(3 + i as u64))))
            .collect();
        let want = multiscalar_mul_bitwise(&terms);
        assert_eq!(multiscalar_mul(&terms), want, "all short");
        let splits: Vec<SplitMultiples> =
            terms.iter().map(|(_, p)| SplitMultiples::new(p)).collect();
        let fixed: Vec<(Scalar, &SplitMultiples)> =
            terms.iter().map(|(k, _)| *k).zip(&splits).collect();
        assert_eq!(straus(&[], &fixed), want, "all fixed");
    }

    #[test]
    fn msm_matches_individual_muls() {
        let b = Point::basepoint();
        let p2 = b.double();
        let terms = vec![
            (Scalar::from_u64(3), b),
            (Scalar::from_u64(5), p2),
            (Scalar::from_u64(7), b.add(&p2)),
        ];
        let slow = mul_bitwise(&b, &Scalar::from_u64(3))
            .add(&mul_bitwise(&p2, &Scalar::from_u64(5)))
            .add(&mul_bitwise(&b.add(&p2), &Scalar::from_u64(7)));
        assert_eq!(multiscalar_mul(&terms), slow);
        assert_eq!(multiscalar_mul_bitwise(&terms), slow);
    }

    #[test]
    fn msm_of_nothing_is_identity() {
        assert!(multiscalar_mul(&[]).is_identity());
        assert!(straus(&[], &[]).is_identity());
        let zero = (Scalar::ZERO, base_split());
        assert!(straus(&[], &[zero]).is_identity());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::DIFFERENTIAL_CASES))]

        #[test]
        fn mul_is_homomorphic(a in arb_scalar(), b in arb_scalar()) {
            let lhs = Point::mul_base(&a.add(b));
            let rhs = Point::mul_base(&a).add(&Point::mul_base(&b));
            prop_assert_eq!(lhs, rhs);
            prop_assert!(lhs.on_curve());
        }

        #[test]
        fn mul_base_matches_the_oracle(k in arb_scalar()) {
            prop_assert_eq!(Point::mul_base(&k), mul_bitwise(&Point::basepoint(), &k));
        }

        #[test]
        fn variable_base_mul_matches_the_oracle(k in arb_scalar(), p in arb_point()) {
            prop_assert_eq!(p.mul(&k), mul_bitwise(&p, &k));
        }

        #[test]
        fn double_scalar_mul_matches_the_oracle(
            k in arb_scalar(),
            s in arb_scalar(),
            p in arb_point(),
        ) {
            let want = mul_bitwise(&p, &k).add(&mul_bitwise(&Point::basepoint(), &s));
            prop_assert_eq!(straus(&[(k, &OddMultiples::new(&p))], &[(s, base_split())]), want);
        }

        #[test]
        fn mixed_short_and_fixed_terms_match_the_oracle(
            short in proptest::collection::vec((arb_scalar(), arb_point()), 0..3),
            fixed in proptest::collection::vec((arb_scalar(), arb_point()), 0..3),
            blinder in any::<[u64; 2]>(),
            s in arb_scalar(),
        ) {
            // As in a batch: a 128-bit short term beside full-width ones,
            // fixed terms, and the base point.
            let mut short = short;
            short.push((Scalar([blinder[0], blinder[1], 0, 0]), Point::basepoint().double()));
            let short_tables: Vec<OddMultiples> =
                short.iter().map(|(_, p)| OddMultiples::new(p)).collect();
            let fixed_tables: Vec<SplitMultiples> =
                fixed.iter().map(|(_, p)| SplitMultiples::new(p)).collect();
            let short_terms: Vec<(Scalar, &OddMultiples)> =
                short.iter().map(|(k, _)| *k).zip(&short_tables).collect();
            let mut fixed_terms: Vec<(Scalar, &SplitMultiples)> =
                fixed.iter().map(|(k, _)| *k).zip(&fixed_tables).collect();
            fixed_terms.push((s, base_split()));
            let mut all = short.clone();
            all.extend(fixed.iter().copied());
            all.push((s, Point::basepoint()));
            prop_assert_eq!(straus(&short_terms, &fixed_terms), multiscalar_mul_bitwise(&all));
        }

        #[test]
        fn multiscalar_mul_matches_the_oracle(
            terms in proptest::collection::vec((arb_scalar(), arb_point()), 0..5),
            short in any::<[u64; 2]>(),
        ) {
            // One 128-bit scalar among full-width ones, as in a batch.
            let mut terms = terms;
            let short = Scalar([short[0], short[1], 0, 0]);
            terms.push((short, Point::basepoint().double()));
            prop_assert_eq!(multiscalar_mul(&terms), multiscalar_mul_bitwise(&terms));
        }
    }
}
