//! Seeded inputs and their expected outputs.
//!
//! Every rank's contribution to call `c` is a seeded base block shifted
//! by `c`: bytes are `base[k] + c` (wrapping) and reduction payloads are
//! integer-valued `f64`s `base[k] + c`, so a call that leaves last
//! call's data behind is caught. The integers stay below 2^20, so sums
//! over up to 2^32 ranks are exact in any order and the expected result
//! of call `c` is the sequential reference over the bases plus `P * c`.

use collops::{reference_reduce, DType, ReduceOp};

/// One SplitMix64 step.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stream key derived from the seed and a path of small integers.
pub fn key(seed: u64, path: &[u64]) -> u64 {
    let mut s = seed;
    for &p in path {
        s ^= p.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        splitmix(&mut s);
    }
    s
}

/// `len` seeded bytes.
pub fn bytes(key: u64, len: usize) -> Vec<u8> {
    let mut s = key;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix(&mut s).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// `len / 8` seeded integer-valued `f64`s in `[0, 2^20)`, as bytes.
pub fn f64s(key: u64, len: usize) -> Vec<u8> {
    let mut s = key;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len / 8 {
        out.extend_from_slice(&((splitmix(&mut s) >> 44) as f64).to_le_bytes());
    }
    out
}

/// `dst = src + c`, byte-wise and wrapping.
pub fn shift_bytes(dst: &mut [u8], src: &[u8], c: u64) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.wrapping_add(c as u8);
    }
}

/// `dst = src + c` over `f64` elements.
pub fn shift_f64(dst: &mut [u8], src: &[u8], c: f64) {
    for (d, s) in dst.chunks_exact_mut(8).zip(src.chunks_exact(8)) {
        let v = f64::from_le_bytes(s.try_into().expect("8-byte chunk")) + c;
        d.copy_from_slice(&v.to_le_bytes());
    }
}

/// Does `got == want + c` hold byte-wise?
pub fn eq_shifted_bytes(got: &[u8], want: &[u8], c: u64) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| *g == w.wrapping_add(c as u8))
}

/// Does `got == want + c` hold over `f64` elements (bit-exact)?
pub fn eq_shifted_f64(got: &[u8], want: &[u8], c: f64) -> bool {
    got.len() == want.len()
        && got.chunks_exact(8).zip(want.chunks_exact(8)).all(|(g, w)| {
            let w = f64::from_le_bytes(w.try_into().expect("8-byte chunk")) + c;
            g == w.to_le_bytes()
        })
}

/// The sequential reference sum of `bases` (integer-valued `f64`s).
pub fn reference_sum(bases: &[Vec<u8>]) -> Vec<u8> {
    reference_reduce(DType::F64, ReduceOp::Sum, bases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifted_sums_stay_exact() {
        let bases: Vec<Vec<u8>> = (0..5).map(|r| f64s(key(7, &[r]), 64)).collect();
        let sum = reference_sum(&bases);
        let shifted: Vec<Vec<u8>> = bases
            .iter()
            .map(|b| {
                let mut d = vec![0; b.len()];
                shift_f64(&mut d, b, 3.0);
                d
            })
            .collect();
        assert!(eq_shifted_f64(&reference_sum(&shifted), &sum, 15.0));
        assert!(!eq_shifted_f64(&reference_sum(&shifted), &sum, 10.0));
    }

    #[test]
    fn seeded_streams_repeat() {
        assert_eq!(bytes(key(1, &[2, 3]), 13), bytes(key(1, &[2, 3]), 13));
        assert_ne!(bytes(key(1, &[2, 3]), 13), bytes(key(2, &[2, 3]), 13));
        let mut d = vec![0; 13];
        shift_bytes(&mut d, &bytes(5, 13), 300);
        assert!(eq_shifted_bytes(&d, &bytes(5, 13), 300));
    }
}
