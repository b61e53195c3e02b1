//! MatrixMarket I/O.
//!
//! Reads and writes the MatrixMarket exchange format (`.mtx`) — the
//! lingua franca for sparse/dense matrix test collections — so the CLI
//! and downstream users can run the solvers on real data sets:
//!
//! * `matrix coordinate real general|symmetric` (sparse triplets),
//! * `matrix array real general|symmetric` (dense column-major).
//!
//! Symmetric files store the lower triangle only; the reader mirrors it.
//!
//! Every float the program writes as data goes through [`push_f64`]:
//! 17 correctly rounded significant digits, the text of
//! `format!("{v:.16e}")`, which reads back to the same bits.

use crate::dense::Matrix;
use crate::error::{Error, Result};
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// Parsed header kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    Coordinate,
    Array,
}

/// Read a real MatrixMarket matrix from a reader.
pub fn read_matrix_market(r: impl BufRead) -> Result<Matrix> {
    let mut lines = r.lines();
    let header = lines
        .next()
        .ok_or_else(|| Error::InvalidArgument("empty MatrixMarket file".into()))?
        .map_err(|e| Error::InvalidArgument(format!("io error: {e}")))?;
    let head = header.to_ascii_lowercase();
    let fields: Vec<&str> = head.split_whitespace().collect();
    if fields.len() < 4 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(Error::InvalidArgument(format!("bad header: {header}")));
    }
    let layout = match fields[2] {
        "coordinate" => Layout::Coordinate,
        "array" => Layout::Array,
        other => {
            return Err(Error::InvalidArgument(format!(
                "unsupported layout {other}"
            )))
        }
    };
    if fields[3] != "real" && fields[3] != "integer" {
        return Err(Error::InvalidArgument(format!(
            "unsupported field type {}",
            fields[3]
        )));
    }
    let symmetric = match fields.get(4).copied().unwrap_or("general") {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(Error::InvalidArgument(format!(
                "unsupported symmetry {other}"
            )))
        }
    };

    // Skip comments, take the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line.map_err(|e| Error::InvalidArgument(format!("io error: {e}")))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| Error::InvalidArgument("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| Error::InvalidArgument(format!("bad size line: {size_line}")))
        })
        .collect::<Result<_>>()?;

    match layout {
        Layout::Coordinate => {
            if dims.len() != 3 {
                return Err(Error::InvalidArgument(
                    "coordinate size line needs m n nnz".into(),
                ));
            }
            let (m, n, nnz) = (dims[0], dims[1], dims[2]);
            let mut a = Matrix::zeros(m, n);
            let mut seen = 0usize;
            for line in lines {
                let line = line.map_err(|e| Error::InvalidArgument(format!("io error: {e}")))?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                let mut it = t.split_whitespace();
                let i: usize = parse_tok(it.next(), t)?;
                let j: usize = parse_tok(it.next(), t)?;
                let v: f64 = parse_tok(it.next(), t)?;
                if i == 0 || j == 0 || i > m || j > n {
                    return Err(Error::InvalidArgument(format!("index out of range: {t}")));
                }
                a[(i - 1, j - 1)] = v;
                if symmetric && i != j {
                    a[(j - 1, i - 1)] = v;
                }
                seen += 1;
            }
            if seen != nnz {
                return Err(Error::InvalidArgument(format!(
                    "expected {nnz} entries, found {seen}"
                )));
            }
            Ok(a)
        }
        Layout::Array => {
            if dims.len() != 2 {
                return Err(Error::InvalidArgument("array size line needs m n".into()));
            }
            let (m, n) = (dims[0], dims[1]);
            let mut vals = Vec::with_capacity(m * n);
            for line in lines {
                let line = line.map_err(|e| Error::InvalidArgument(format!("io error: {e}")))?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                for tok in t.split_whitespace() {
                    vals.push(
                        tok.parse::<f64>()
                            .map_err(|_| Error::InvalidArgument(format!("bad value: {tok}")))?,
                    );
                }
            }
            if symmetric {
                // Column-major lower triangle (including diagonal).
                if vals.len() != n * (n + 1) / 2 || m != n {
                    return Err(Error::InvalidArgument(
                        "symmetric array must hold the lower triangle of a square matrix".into(),
                    ));
                }
                let mut a = Matrix::zeros(n, n);
                let mut idx = 0;
                for j in 0..n {
                    for i in j..n {
                        a[(i, j)] = vals[idx];
                        a[(j, i)] = vals[idx];
                        idx += 1;
                    }
                }
                Ok(a)
            } else {
                if vals.len() != m * n {
                    return Err(Error::InvalidArgument(format!(
                        "expected {} values, found {}",
                        m * n,
                        vals.len()
                    )));
                }
                Matrix::from_col_major(m, n, vals)
            }
        }
    }
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, line: &str) -> Result<T> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| Error::InvalidArgument(format!("bad entry line: {line}")))
}

/// Write a dense matrix in `array real general` format.
pub fn write_matrix_market(a: &Matrix, mut w: impl Write) -> Result<()> {
    let io_err = |e: std::io::Error| Error::InvalidArgument(format!("io error: {e}"));
    writeln!(w, "%%MatrixMarket matrix array real general").map_err(io_err)?;
    writeln!(w, "{} {}", a.rows(), a.cols()).map_err(io_err)?;
    write_f64_lines(&mut w, a.as_slice()).map_err(io_err)
}

/// Write the lower triangle of a symmetric matrix in
/// `coordinate real symmetric` format (zeros skipped).
pub fn write_matrix_market_symmetric(a: &Matrix, mut w: impl Write) -> Result<()> {
    assert_eq!(a.rows(), a.cols());
    let io_err = |e: std::io::Error| Error::InvalidArgument(format!("io error: {e}"));
    let n = a.rows();
    let mut entries = Vec::new();
    for j in 0..n {
        for i in j..n {
            if a[(i, j)] != 0.0 {
                entries.push((i + 1, j + 1, a[(i, j)]));
            }
        }
    }
    writeln!(w, "%%MatrixMarket matrix coordinate real symmetric").map_err(io_err)?;
    writeln!(w, "{n} {n} {}", entries.len()).map_err(io_err)?;
    let mut line = String::new();
    for (i, j, v) in entries {
        line.clear();
        let _ = write!(line, "{i} {j} ");
        push_f64(&mut line, v);
        line.push('\n');
        w.write_all(line.as_bytes()).map_err(io_err)?;
    }
    Ok(())
}

/// Write `vals` one per line, each spelled by [`push_f64`].
pub fn write_f64_lines(mut w: impl Write, vals: &[f64]) -> std::io::Result<()> {
    let mut line = String::with_capacity(F64_TEXT_MAX + 1);
    vals.iter().try_for_each(|&v| {
        line.clear();
        push_f64(&mut line, v);
        line.push('\n');
        w.write_all(line.as_bytes())
    })
}

/// The longest text [`push_f64`] writes: `-d.dddddddddddddddde-ddd`.
pub const F64_TEXT_MAX: usize = 24;

/// Append `v` with 17 correctly rounded significant digits: byte for
/// byte the text of `format!("{v:.16e}")`, from which every f64 reads
/// back to the same bits.
///
/// The digits come from one 64 x 64 -> 128-bit product of the
/// normalized significand with the truncated power of ten of
/// [`POW10_SIG`] (the integer step of Loitsch's Grisu, PLDI 2010). The
/// truncation places the exact product in a known interval above the
/// computed one. When that interval holds a rounding boundary (a few
/// values in a thousand, and every tie), and for NaN and the infinities,
/// std's exact formatter writes the text instead.
pub fn push_f64(out: &mut String, v: f64) {
    let mut buf = [0u8; F64_TEXT_MAX];
    match spell_f64(v, &mut buf).and_then(|len| std::str::from_utf8(&buf[..len]).ok()) {
        Some(text) => out.push_str(text),
        None => {
            let _ = write!(out, "{v:.16e}");
        }
    }
}

/// `"00"`, `"01"`, ..., `"99"`: two digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write `v` as `format!("{v:.16e}")` would into `buf`, returning the
/// length, or `None` where [`push_f64`] defers to std.
fn spell_f64(v: f64, buf: &mut [u8; F64_TEXT_MAX]) -> Option<usize> {
    if !v.is_finite() {
        return None;
    }
    let (digits, exp) = if v == 0.0 { (0, 0) } else { digits17(v.abs())? };
    let mut at = 0;
    if v.is_sign_negative() {
        buf[0] = b'-';
        at = 1;
    }
    let (lead, rest) = (digits / 10u64.pow(16), digits % 10u64.pow(16));
    buf[at] = b'0' + lead as u8;
    buf[at + 1] = b'.';
    put8(&mut buf[at + 2..at + 10], rest / 100_000_000);
    put8(&mut buf[at + 10..at + 18], rest % 100_000_000);
    buf[at + 18] = b'e';
    at += 19;
    if exp < 0 {
        buf[at] = b'-';
        at += 1;
    }
    let e = exp.unsigned_abs();
    if e >= 100 {
        buf[at] = b'0' + (e / 100) as u8;
        at += 1;
    }
    if e >= 10 {
        buf[at] = b'0' + (e / 10 % 10) as u8;
        at += 1;
    }
    buf[at] = b'0' + (e % 10) as u8;
    Some(at + 1)
}

/// Write the eight decimal digits of `x < 10^8` to `out`.
fn put8(out: &mut [u8], x: u64) {
    let (hi, lo) = (x / 10_000, x % 10_000);
    for (k, pair) in [hi / 100, hi % 100, lo / 100, lo % 100]
        .into_iter()
        .enumerate()
    {
        let d = 2 * pair as usize;
        out[2 * k..2 * k + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
}

/// `(d, k)` with `10^16 <= d < 10^17` such that `d * 10^(k - 16)` is the
/// finite `v > 0` rounded to 17 significant digits; `None` when the
/// truncated power of ten cannot decide the rounding.
fn digits17(v: f64) -> Option<(u64, i64)> {
    const LOW: u64 = 10u64.pow(16);
    const HIGH: u64 = 10 * LOW;
    let bits = v.to_bits();
    let frac = bits & ((1 << 52) - 1);
    let (m, e2) = match (bits >> 52) as i64 {
        0 => (frac, -1074),
        biased => (frac | 1 << 52, biased - 1075),
    };
    // v = sig * 2^e2 with the top bit of sig set, so 2^(e2 + 63) <= v.
    let lz = i64::from(m.leading_zeros());
    let (sig, e2) = (m << lz, e2 - lz);
    // floor((e2 + 63) log10 2) is the decimal exponent of v or one less:
    // scale for both and keep the one in range, without a branch to
    // mispredict.
    let k = ((e2 + 63) * 78_913) >> 18;
    let (d, decided) = scaled(sig, e2, 16 - k)?;
    let (d1, decided1) = scaled(sig, e2, 15 - k)?;
    let (d, decided, k) = if d > HIGH {
        (d1, decided1, k + 1)
    } else {
        (d, decided, k)
    };
    if !decided || !(LOW..=HIGH).contains(&d) {
        return None;
    }
    // At HIGH the 17th digit carried into a new decade: 9.99...95e(k)
    // and up spell as 1.00...00e(k + 1).
    Some(if d == HIGH { (LOW, k + 1) } else { (d, k) })
}

/// `sig * 2^e2 * 10^q` rounded to the nearest integer, and whether the
/// truncated `10^q` decides that rounding.
fn scaled(sig: u64, e2: i64, q: i64) -> Option<(u64, bool)> {
    let c = *POW10_SIG.get(usize::try_from(q - POW10_MIN).ok()?)?;
    // 10^q = (c + t) * 2^(log2_pow10(q) - 63) for some 0 <= t < 1, so
    // the exact product lies in [sig * c, sig * c + sig).
    let shift = 63 - log2_pow10(q) - e2;
    if !(64..128).contains(&shift) {
        return None;
    }
    let p = u128::from(sig) * u128::from(c);
    let floor = u64::try_from(p >> shift).ok()?;
    let rem = p & ((1 << shift) - 1);
    let half = 1u128 << (shift - 1);
    let up = rem > half;
    Some((floor + u64::from(up), up || rem + u128::from(sig) <= half))
}

/// `floor(q log2 10)`, exact for every `q` of [`POW10_SIG`] (checked by
/// `pow10_table_is_exact`).
fn log2_pow10(q: i64) -> i64 {
    (q * 1_741_647) >> 19
}

/// The range of `q` in [`POW10_SIG`]: [`digits17`] scales by
/// `10^(16 - k)` for decimal exponents `k` from -324 to 308.
const POW10_MIN: i64 = -292;
const POW10_MAX: i64 = 340;
const POW10_LEN: usize = (POW10_MAX - POW10_MIN + 1) as usize;

/// `POW10_SIG[q - POW10_MIN]` holds the top 64 bits of `10^q`,
/// truncated: `floor(10^q / 2^(log2_pow10(q) - 63))`.
static POW10_SIG: [u64; POW10_LEN] = pow10_table();

/// Limbs of the integers [`pow10_table`] works in: 18 x 64 bits hold
/// `10^341` and `2^1151`.
const LIMBS: usize = 18;

/// Build [`POW10_SIG`] at compile time. For `q >= 0` it multiplies
/// `10^q` up exactly. For `q < 0` it divides `2^1151` by ten, exactly
/// as integers: `floor(floor(a / b) / c) = floor(a / (b c))`, so the
/// top 64 bits after `-q` steps are those of `2^1151 / 10^-q`.
const fn pow10_table() -> [u64; POW10_LEN] {
    let mut table = [0u64; POW10_LEN];
    let mut x = [0u64; LIMBS];
    x[0] = 1;
    let mut q = 0;
    while q <= POW10_MAX {
        table[(q - POW10_MIN) as usize] = top64(&x);
        let (mut carry, mut i) = (0u128, 0);
        while i < LIMBS {
            let t = x[i] as u128 * 10 + carry;
            x[i] = t as u64;
            carry = t >> 64;
            i += 1;
        }
        q += 1;
    }
    let mut x = [0u64; LIMBS];
    x[LIMBS - 1] = 1 << 63;
    let mut q = -1;
    while q >= POW10_MIN {
        let (mut rem, mut i) = (0u128, LIMBS);
        while i > 0 {
            i -= 1;
            let t = (rem << 64) | x[i] as u128;
            x[i] = (t / 10) as u64;
            rem = t % 10;
        }
        table[(q - POW10_MIN) as usize] = top64(&x);
        q -= 1;
    }
    table
}

/// The top 64 bits of the nonzero little-endian integer `x`, truncated
/// (shifted up when `x` has fewer bits).
const fn top64(x: &[u64; LIMBS]) -> u64 {
    let mut i = LIMBS - 1;
    while x[i] == 0 {
        i -= 1;
    }
    let z = x[i].leading_zeros();
    if z == 0 {
        x[i]
    } else if i == 0 {
        x[0] << z
    } else {
        (x[i] << z) | (x[i - 1] >> (64 - z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn coordinate_symmetric_roundtrip() {
        let a = gen::random_symmetric(7, 1);
        let mut buf = Vec::new();
        write_matrix_market_symmetric(&a, &mut buf).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert!(b.approx_eq(&a, 0.0));
    }

    #[test]
    fn array_general_roundtrip() {
        let a = Matrix::from_fn(4, 6, |i, j| (i * 10 + j) as f64 * 0.5 - 3.0);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert!(b.approx_eq(&a, 0.0));
    }

    #[test]
    fn parses_reference_text() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % a comment\n\
                    3 3 4\n\
                    1 1 2.0\n\
                    2 1 -1.0\n\
                    2 2 2.0\n\
                    3 3 1.5\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(0, 1)], -1.0); // mirrored
        assert_eq!(a[(1, 0)], -1.0);
        assert_eq!(a[(2, 2)], 1.5);
    }

    #[test]
    fn rejects_malformed() {
        assert!(read_matrix_market("not a header\n1 1 1\n".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 1\n".as_bytes()
        )
        .is_err());
        // Wrong entry count.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
        // Out-of-range index.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    /// `push_f64` spells `v` as `{:.16e}` does, and the text reads back
    /// to the same bits.
    fn check_f64(v: f64) {
        let mut s = String::new();
        push_f64(&mut s, v);
        assert_eq!(s, format!("{v:.16e}"), "{v:?} ({:#018x})", v.to_bits());
        assert!(s.len() <= F64_TEXT_MAX, "{s}");
        if v.is_finite() {
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn push_f64_extremes_and_non_finite() {
        for v in [
            0.0,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            1.0,
            0.1,
            2.5,
            1e23,
        ] {
            check_f64(v);
            check_f64(-v);
        }
        for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            check_f64(v);
        }
        let mut s = String::new();
        push_f64(&mut s, -0.0);
        assert_eq!(s, "-0.0000000000000000e0");
    }

    #[test]
    fn push_f64_powers_of_ten_and_two() {
        for k in -323..=308 {
            let p = format!("1e{k}").parse::<f64>().unwrap();
            for v in [p.next_down(), p, p.next_up()] {
                check_f64(v);
            }
        }
        for k in -1074..=1023 {
            let p = 2f64.powi(k);
            for v in [p.next_down(), p, p.next_up()] {
                check_f64(v);
            }
        }
    }

    #[test]
    fn push_f64_carries_into_a_new_decade() {
        // Just below each power of ten: some 17-digit spellings are
        // 9.9999999999999999e(k-1), and some round up to 1.0e(k).
        let mut carried = 0;
        for k in -307..=308 {
            let p = format!("1e{k}").parse::<f64>().unwrap();
            for v in std::iter::successors(Some(p), |v| Some(v.next_down())).take(4) {
                check_f64(v);
                let mut s = String::new();
                push_f64(&mut s, v);
                let below = format!("{v:.20e}").starts_with('9');
                carried += usize::from(below && s.starts_with('1'));
            }
            check_f64(format!("9.9999999999999999e{k}").parse().unwrap());
        }
        assert!(carried >= 10, "{carried} carried spellings");
    }

    #[test]
    fn push_f64_random_bit_patterns() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut fallbacks = 0;
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = f64::from_bits(state);
            check_f64(v);
            let mut buf = [0u8; F64_TEXT_MAX];
            fallbacks += usize::from(v.is_finite() && spell_f64(v, &mut buf).is_none());
        }
        // The truncated table decides all but a few values in a thousand.
        assert!(fallbacks < 10_000, "{fallbacks} fallbacks");
    }

    /// A little-endian natural number in 32-bit limbs, no trailing
    /// zero limb: enough arithmetic to check the table without the code
    /// that built it.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Big(Vec<u32>);

    impl Big {
        fn of(v: u128) -> Big {
            let limbs = (0..4).map(|k| (v >> (32 * k)) as u32).collect();
            Big(limbs).trim()
        }
        fn trim(mut self) -> Big {
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }
        fn mul(&self, o: &Big) -> Big {
            let mut out = vec![0u32; self.0.len() + o.0.len()];
            for (i, &x) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &y) in o.0.iter().enumerate() {
                    let t = u64::from(out[i + j]) + u64::from(x) * u64::from(y) + carry;
                    out[i + j] = t as u32;
                    carry = t >> 32;
                }
                out[i + o.0.len()] = carry as u32;
            }
            Big(out).trim()
        }
        fn pow10(p: i64) -> Big {
            (0..p).fold(Big::of(1), |x, _| x.mul(&Big::of(10)))
        }
        fn shl(&self, bits: i64) -> Big {
            let mut limbs = vec![0u32; usize::try_from(bits / 32).unwrap()];
            limbs.extend_from_slice(&self.0);
            Big(limbs).mul(&Big::of(1 << (bits % 32)))
        }
    }

    impl PartialOrd for Big {
        fn partial_cmp(&self, o: &Big) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    impl Ord for Big {
        fn cmp(&self, o: &Big) -> std::cmp::Ordering {
            let top = |b: &Big| b.0.iter().rev().copied().collect::<Vec<_>>();
            self.0
                .len()
                .cmp(&o.0.len())
                .then_with(|| top(self).cmp(&top(o)))
        }
    }

    #[test]
    fn pow10_table_is_exact() {
        // Each entry c is the one integer with 2^63 <= c < 2^64 and
        // c 2^e <= 10^q < (c + 1) 2^e, e = log2_pow10(q) - 63: the
        // powers of two and ten go to whichever side keeps them integral.
        for q in POW10_MIN..=POW10_MAX {
            let c = POW10_SIG[usize::try_from(q - POW10_MIN).unwrap()];
            assert_eq!(c >> 63, 1, "q = {q}");
            let e = log2_pow10(q) - 63;
            let ten = Big::pow10(q.abs());
            let side = |c: u128| match (q < 0, e >= 0) {
                (true, _) => Big::of(c).mul(&ten),
                (false, true) => Big::of(c).shl(e),
                (false, false) => Big::of(c),
            };
            let x = match (q < 0, e >= 0) {
                (true, _) => Big::of(1).shl(-e),
                (false, true) => ten.clone(),
                (false, false) => ten.shl(-e),
            };
            let c = u128::from(c);
            assert!(side(c) <= x && x < side(c + 1), "q = {q}");
        }
    }

    #[test]
    fn array_symmetric_lower_triangle() {
        let text = "%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n3\n4\n5\n6\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        // Lower triangle column-major: (0,0)=1 (1,0)=2 (2,0)=3 (1,1)=4 (2,1)=5 (2,2)=6.
        assert_eq!(a[(2, 1)], 5.0);
        assert_eq!(a[(1, 2)], 5.0);
        assert_eq!(a[(2, 2)], 6.0);
    }
}
