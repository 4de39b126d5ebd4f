//! BLAKE2b-256 (RFC 7693): the result cache's content digest.
//!
//! The cache keys a job by the digest of its canonical payload rather
//! than by the payload text, which for a Table-1 deck is ≈ 136 kB per
//! job. A 64-bit hash such as FNV-1a collides by accident after a few
//! billion keys and on purpose whenever someone wants it to; a 256-bit
//! BLAKE2b digest leaves 128-bit collision resistance, and finding two
//! payloads with one digest is not known to be feasible.
//!
//! This is the unkeyed hash with a 32-byte digest: 64-bit words, 12
//! rounds per 128-byte block, a 128-bit byte counter, and the last
//! block (full, or zero-padded) compressed exactly once with the final
//! flag. Every job pays for its key, hit or miss; BLAKE2b's 64-bit
//! additions, rotations and XORs hash a deck three to five times faster
//! than a portable SHA-256 (DESIGN.md, "Cache keying").

/// Initial chaining value: SHA-512's, the first 64 bits of the
/// fractional parts of the square roots of the first 8 primes.
const IV: [u64; 8] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
    0x510e_527f_ade6_82d1,
    0x9b05_688c_2b3e_6c1f,
    0x1f83_d9ab_fb41_bd6b,
    0x5be0_cd19_137e_2179,
];

/// Message word schedule, one permutation per round; rounds 10 and 11
/// reuse the first two.
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// Bytes per message block.
const BLOCK: usize = 128;
/// Digest length, bytes.
const DIGEST: usize = 32;

/// Incremental BLAKE2b-256 over a byte stream.
pub(crate) struct Blake2b {
    h: [u64; 8],
    /// The latest block, held back until more input shows it is not the
    /// last one.
    block: [u8; BLOCK],
    filled: usize,
    /// Bytes compressed so far.
    counter: u128,
}

impl Blake2b {
    pub(crate) fn new() -> Self {
        let mut h = IV;
        // Parameter block: digest length, no key, fanout 1, depth 1.
        h[0] ^= 0x0101_0000 ^ DIGEST as u64;
        Self {
            h,
            block: [0; BLOCK],
            filled: 0,
            counter: 0,
        }
    }

    /// Appends `data` to the message. Whole blocks are compressed
    /// straight from `data`; only the last block of the input so far is
    /// copied, since it may be the message's last.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if self.filled > 0 {
            let take = (BLOCK - self.filled).min(data.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if data.is_empty() {
                return;
            }
            self.counter += BLOCK as u128;
            compress(&mut self.h, &self.block, self.counter, false);
        }
        // Keep back 1..=BLOCK bytes: the last block is compressed by
        // `finish`, with the final flag.
        let keep = (data.len() - 1) % BLOCK + 1;
        let (whole, last) = data.split_at(data.len() - keep);
        for b in whole.chunks_exact(BLOCK) {
            self.counter += BLOCK as u128;
            compress(&mut self.h, b, self.counter, false);
        }
        self.block[..keep].copy_from_slice(last);
        self.filled = keep;
    }

    /// Compresses the zero-padded last block and returns the digest.
    pub(crate) fn finish(mut self) -> [u8; DIGEST] {
        self.counter += self.filled as u128;
        self.block[self.filled..].fill(0);
        compress(&mut self.h, &self.block, self.counter, true);
        let mut out = [0u8; DIGEST];
        for (o, w) in out.chunks_exact_mut(8).zip(self.h) {
            o.copy_from_slice(&w.to_le_bytes());
        }
        out
    }
}

/// The mixing function `G` on columns or diagonals `a, b, c, d` of the
/// work vector, with message words `x` and `y`.
#[inline(always)]
fn g(v: &mut [u64; 16], a: usize, b: usize, c: usize, d: usize, x: u64, y: u64) {
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(x);
    v[d] = (v[d] ^ v[a]).rotate_right(32);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(24);
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(y);
    v[d] = (v[d] ^ v[a]).rotate_right(16);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(63);
}

/// One round: `G` on the four columns, then on the four diagonals, with
/// the message words in schedule `s`.
#[inline(always)]
fn round(v: &mut [u64; 16], m: &[u64; 16], s: &[usize; 16]) {
    g(v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
    g(v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
    g(v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
    g(v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
    g(v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
    g(v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
    g(v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
    g(v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
}

/// The compression function `F` on one 128-byte block; `counter` is the
/// message length through this block, and `last` marks the final block.
fn compress(h: &mut [u64; 8], block: &[u8], counter: u128, last: bool) {
    let mut m = [0u64; 16];
    for (mi, b) in m.iter_mut().zip(block.chunks_exact(8)) {
        *mi = u64::from_le_bytes(b.try_into().unwrap_or_default());
    }
    let mut v = [0u64; 16];
    v[..8].copy_from_slice(h);
    v[8..].copy_from_slice(&IV);
    // The counter's low and high words (the truncations are the split).
    v[12] ^= counter as u64;
    v[13] ^= (counter >> 64) as u64;
    if last {
        v[14] = !v[14];
    }
    // Twelve rounds, written out so that every schedule index is a
    // constant: a loop over the rounds indexes `m` through `SIGMA` at
    // run time, and hashed a deck ≈ 1.4× slower in the same build.
    round(&mut v, &m, &SIGMA[0]);
    round(&mut v, &m, &SIGMA[1]);
    round(&mut v, &m, &SIGMA[2]);
    round(&mut v, &m, &SIGMA[3]);
    round(&mut v, &m, &SIGMA[4]);
    round(&mut v, &m, &SIGMA[5]);
    round(&mut v, &m, &SIGMA[6]);
    round(&mut v, &m, &SIGMA[7]);
    round(&mut v, &m, &SIGMA[8]);
    round(&mut v, &m, &SIGMA[9]);
    round(&mut v, &m, &SIGMA[0]);
    round(&mut v, &m, &SIGMA[1]);
    for (i, hi) in h.iter_mut().enumerate() {
        *hi ^= v[i] ^ v[i + 8];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: [u8; DIGEST]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn digest(msg: &[u8]) -> String {
        let mut h = Blake2b::new();
        h.update(msg);
        hex(h.finish())
    }

    /// `i % 251` for `i` in `0..len`: no period divides the block size.
    fn ramp(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Known answers, from `hashlib.blake2b(data, digest_size=32)` or
    /// `b2sum -l 256`.
    #[test]
    fn rfc_7693_known_answers() {
        assert_eq!(
            digest(b""),
            "0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8"
        );
        assert_eq!(
            digest(b"abc"),
            "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319"
        );
        // Exactly one block: it is the last one, so it is compressed once,
        // with the final flag, and no padded block follows.
        assert_eq!(
            digest(&ramp(128)),
            "c3582f71ebb2be66fa5dd750f80baae97554f3b015663c8be377cfcb2488c1d1"
        );
        assert_eq!(
            digest(&ramp(129)),
            "f7f3c46ba2564ff4c4c162da1f5b605f9f1c4aa6a20652a9f9a337c1a2f5b9c9"
        );
        assert_eq!(
            digest(&vec![b'a'; 1_000_000]),
            "0741850f36cba4259628355d1073e24ddb9ca0e1bfac36fd39ae5dc2101e23a4"
        );
    }

    #[test]
    fn split_updates_match_one_update() {
        let msg = ramp(1000);
        let whole = digest(&msg);
        for cut in [0, 1, 127, 128, 129, 255, 256, msg.len()] {
            let mut h = Blake2b::new();
            h.update(&msg[..cut]);
            h.update(&msg[cut..]);
            assert_eq!(hex(h.finish()), whole, "cut at {cut}");
        }
        // Byte by byte, and block-sized pieces after a one-byte lead.
        let mut h = Blake2b::new();
        for b in &msg {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(hex(h.finish()), whole, "byte by byte");
        let mut h = Blake2b::new();
        h.update(&msg[..1]);
        for piece in msg[1..].chunks(BLOCK) {
            h.update(piece);
        }
        assert_eq!(hex(h.finish()), whole, "blocks after one byte");
    }
}
