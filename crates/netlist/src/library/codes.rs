//! Error-detection and encoding circuits: CRC, Hamming(7,4), Gray code.
//!
//! These stand in for the paper's telecom/networking/storage scenarios
//! ("modems, faxes, switching systems … complex disk arrays"), where the
//! VFPGA swaps encoding algorithms depending on the communication partner.

use crate::gate::NodeId;
use crate::graph::{Builder, Netlist};

/// Combinational CRC over a `data_width`-bit message with the given
/// polynomial (implicit leading 1, `crc_width` remainder bits), starting
/// from an all-zero register.
///
/// Inputs: `d[data_width]` (bit 0 processed first); outputs: `crc[crc_width]`.
pub fn crc_comb(name: &str, poly: u64, crc_width: usize, data_width: usize) -> Netlist {
    assert!((1..=32).contains(&crc_width));
    assert!(data_width >= 1);
    let mut b = Builder::new(name);
    let data = b.inputs(data_width);
    let zero = b.constant(false);
    let mut reg: Vec<NodeId> = vec![zero; crc_width];
    for &d in &data {
        // One shift step: feedback = msb XOR d; reg <<= 1; reg ^= fb ? poly : 0.
        let msb = reg[crc_width - 1];
        let fb = b.xor(msb, d);
        let mut next = Vec::with_capacity(crc_width);
        for i in 0..crc_width {
            let shifted = if i == 0 { zero } else { reg[i - 1] };
            let v = if (poly >> i) & 1 == 1 {
                b.xor(shifted, fb)
            } else {
                shifted
            };
            next.push(v);
        }
        reg = next;
    }
    b.output_bus("crc", &reg);
    b.finish()
}

/// Golden model for [`crc_comb`] (and the serial CRC in `seq`): processes
/// `data` LSB-first through the shift register.
pub fn golden_crc(poly: u64, crc_width: usize, data: u64, data_width: usize) -> u64 {
    let mask = if crc_width >= 64 {
        u64::MAX
    } else {
        (1 << crc_width) - 1
    };
    let mut reg = 0u64;
    for i in 0..data_width {
        let d = (data >> i) & 1;
        let msb = (reg >> (crc_width - 1)) & 1;
        let fb = msb ^ d;
        reg = (reg << 1) & mask;
        if fb == 1 {
            reg ^= poly & mask;
        }
    }
    reg
}

/// CRC-16/CCITT polynomial (x^16 + x^12 + x^5 + 1).
pub const CRC16_CCITT: u64 = 0x1021;
/// CRC-8 polynomial (x^8 + x^2 + x + 1).
pub const CRC8: u64 = 0x07;

/// Hamming(7,4) encoder. Inputs: `d[4]`; outputs: `c[7]`.
///
/// Codeword layout (LSB-first): c0=p1, c1=p2, c2=d0, c3=p4, c4=d1, c5=d2, c6=d3.
pub fn hamming74_encode(name: &str) -> Netlist {
    let mut b = Builder::new(name);
    let d = b.inputs(4);
    let p1 = {
        let t = b.xor(d[0], d[1]);
        b.xor(t, d[3])
    };
    let p2 = {
        let t = b.xor(d[0], d[2]);
        b.xor(t, d[3])
    };
    let p4 = {
        let t = b.xor(d[1], d[2]);
        b.xor(t, d[3])
    };
    let code = [p1, p2, d[0], p4, d[1], d[2], d[3]];
    b.output_bus("c", &code);
    b.finish()
}

/// Golden model for [`hamming74_encode`].
pub fn golden_hamming74_encode(d: u64) -> u64 {
    let d0 = d & 1;
    let d1 = (d >> 1) & 1;
    let d2 = (d >> 2) & 1;
    let d3 = (d >> 3) & 1;
    let p1 = d0 ^ d1 ^ d3;
    let p2 = d0 ^ d2 ^ d3;
    let p4 = d1 ^ d2 ^ d3;
    p1 | (p2 << 1) | (d0 << 2) | (p4 << 3) | (d1 << 4) | (d2 << 5) | (d3 << 6)
}

/// Hamming(7,4) decoder with single-error correction.
///
/// Inputs: `c[7]`; outputs: `d[4]`, `err` (1 iff a correction was applied).
pub fn hamming74_decode(name: &str) -> Netlist {
    let mut b = Builder::new(name);
    let c = b.inputs(7);
    // Syndrome bits (1-indexed positions).
    let s1 = {
        let t1 = b.xor(c[0], c[2]);
        let t2 = b.xor(c[4], c[6]);
        b.xor(t1, t2)
    };
    let s2 = {
        let t1 = b.xor(c[1], c[2]);
        let t2 = b.xor(c[5], c[6]);
        b.xor(t1, t2)
    };
    let s4 = {
        let t1 = b.xor(c[3], c[4]);
        let t2 = b.xor(c[5], c[6]);
        b.xor(t1, t2)
    };
    let err = {
        let t = b.or(s1, s2);
        b.or(t, s4)
    };
    // Correct position s (1..=7): flip c[s-1].
    let mut corrected = Vec::with_capacity(7);
    for (i, &ci) in c.iter().enumerate() {
        let pos = (i + 1) as u64;
        // at_pos = (s1==pos.bit0) & (s2==pos.bit1) & (s4==pos.bit2)
        let b0 = if pos & 1 == 1 { s1 } else { b.not(s1) };
        let b1 = if (pos >> 1) & 1 == 1 { s2 } else { b.not(s2) };
        let b2 = if (pos >> 2) & 1 == 1 { s4 } else { b.not(s4) };
        let t = b.and(b0, b1);
        let at_pos = b.and(t, b2);
        let flipped = b.xor(ci, at_pos);
        corrected.push(flipped);
    }
    let d = [corrected[2], corrected[4], corrected[5], corrected[6]];
    b.output_bus("d", &d);
    b.output("err", err);
    b.finish()
}

/// Binary→Gray encoder. Inputs: `b[width]`; outputs: `g[width]`.
pub fn gray_encode(name: &str, width: usize) -> Netlist {
    assert!(width >= 1);
    let mut bld = Builder::new(name);
    let xs = bld.inputs(width);
    let mut g = Vec::with_capacity(width);
    for i in 0..width {
        if i + 1 < width {
            g.push(bld.xor(xs[i], xs[i + 1]));
        } else {
            g.push(xs[i]);
        }
    }
    bld.output_bus("g", &g);
    bld.finish()
}

/// Gray→binary decoder. Inputs: `g[width]`; outputs: `b[width]`.
pub fn gray_decode(name: &str, width: usize) -> Netlist {
    assert!(width >= 1);
    let mut bld = Builder::new(name);
    let gs = bld.inputs(width);
    let mut b = vec![gs[width - 1]];
    for i in (0..width - 1).rev() {
        let prev = b[b.len() - 1];
        b.push(bld.xor(gs[i], prev));
    }
    b.reverse();
    bld.output_bus("b", &b);
    bld.finish()
}

/// Golden model for [`gray_encode`].
pub fn golden_gray_encode(v: u64) -> u64 {
    v ^ (v >> 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::eval_comb;

    fn bits(v: u64, w: usize) -> Vec<bool> {
        (0..w).map(|i| (v >> i) & 1 == 1).collect()
    }

    fn to_u64(bs: &[bool]) -> u64 {
        bs.iter()
            .enumerate()
            .fold(0, |a, (i, &b)| a | ((b as u64) << i))
    }

    #[test]
    fn crc8_matches_golden() {
        let n = crc_comb("crc8", CRC8, 8, 8);
        for v in 0..256u64 {
            let out = eval_comb(&n, &bits(v, 8));
            assert_eq!(to_u64(&out), golden_crc(CRC8, 8, v, 8), "v={v:#x}");
        }
    }

    #[test]
    fn crc16_spot_checks() {
        let n = crc_comb("crc16", CRC16_CCITT, 16, 12);
        for v in [0u64, 1, 0xABC, 0xFFF, 0x555] {
            let out = eval_comb(&n, &bits(v, 12));
            assert_eq!(to_u64(&out), golden_crc(CRC16_CCITT, 16, v, 12), "v={v:#x}");
        }
    }

    #[test]
    fn hamming_encode_exhaustive() {
        let n = hamming74_encode("h74e");
        for d in 0..16u64 {
            let out = eval_comb(&n, &bits(d, 4));
            assert_eq!(to_u64(&out), golden_hamming74_encode(d), "d={d}");
        }
    }

    #[test]
    fn hamming_roundtrip_clean() {
        let dec = hamming74_decode("h74d");
        for d in 0..16u64 {
            let cw = golden_hamming74_encode(d);
            let out = eval_comb(&dec, &bits(cw, 7));
            assert_eq!(to_u64(&out[..4]), d);
            assert!(!out[4], "clean codeword must not flag error");
        }
    }

    #[test]
    fn hamming_corrects_single_bit_errors() {
        let dec = hamming74_decode("h74d");
        for d in 0..16u64 {
            let cw = golden_hamming74_encode(d);
            for flip in 0..7 {
                let bad = cw ^ (1 << flip);
                let out = eval_comb(&dec, &bits(bad, 7));
                assert_eq!(to_u64(&out[..4]), d, "d={d} flip={flip}");
                assert!(out[4], "correction must be flagged");
            }
        }
    }

    #[test]
    fn gray_roundtrip_exhaustive() {
        let enc = gray_encode("ge", 6);
        let dec = gray_decode("gd", 6);
        for v in 0..64u64 {
            let g = to_u64(&eval_comb(&enc, &bits(v, 6)));
            assert_eq!(g, golden_gray_encode(v), "encode {v}");
            let back = to_u64(&eval_comb(&dec, &bits(g, 6)));
            assert_eq!(back, v, "roundtrip {v}");
        }
    }

    #[test]
    fn gray_adjacent_values_differ_in_one_bit() {
        let enc = gray_encode("ge", 5);
        for v in 0..31u64 {
            let g1 = to_u64(&eval_comb(&enc, &bits(v, 5)));
            let g2 = to_u64(&eval_comb(&enc, &bits(v + 1, 5)));
            assert_eq!((g1 ^ g2).count_ones(), 1, "v={v}");
        }
    }
}
