//! Group-wise affine quantization (HQQ's storage layout, min/max fit).
//!
//! The paper quantizes expert (and optionally attention) weights to 4 bits
//! with a scale group of 64 and a zero-point group of 128 (§7,
//! "Compression"), dequantizing back to full precision before compute. This
//! module implements exactly that storage format: per-group scales, shared
//! zero points, and weights bit-packed into a byte stream. The fit is plain
//! min/max affine quantization: each zero group's zero point sits at its
//! minimum and its scale groups share one scale, the zero group's span
//! over the code range (there is no HQQ-style iterative refinement).
//!
//! Two compute paths read the packed stream:
//!
//! * [`QuantizedMatrix::dequantize_into`] reconstructs full precision a
//!   scale group at a time (zero/scale hoisted, bytes decoded in bulk —
//!   two codes per byte at 4 bits);
//! * [`QuantizedMatrix::matmul_nt_fused_into`] fuses that dequantization
//!   into the `A · selfᵀ` GEMM — a 64-code panel of each weight row is
//!   unpacked into a stack buffer and fed straight to the register
//!   micro-kernels, so expert compute runs off the packed bytes with no
//!   full-precision staging matrix. Both are **bit-identical** to
//!   dequantize-then-GEMM: the dequant expression and every per-element
//!   accumulation chain are unchanged (`f32` accumulators spill/reload
//!   exactly across panels).

use crate::matrix::{Matrix, NT_COLS};
use crate::simd::{active_backend, KernelBackend};

/// Parameters of a group-wise affine quantizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantConfig {
    /// Bits per weight (2–8).
    pub bits: u32,
    /// Weights per scale group.
    pub group_size: u32,
    /// Weights per zero-point group (a multiple of `group_size`).
    pub zero_group_size: u32,
}

impl QuantConfig {
    /// The paper's preset: 4 bits, scale group 64, zero group 128.
    pub fn paper_default() -> Self {
        QuantConfig {
            bits: 4,
            group_size: 64,
            zero_group_size: 128,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 8`, groups are positive, and
    /// `zero_group_size` is a multiple of `group_size`.
    fn validate(&self) {
        assert!((2..=8).contains(&self.bits), "bits must be in 2..=8");
        assert!(self.group_size > 0, "group_size must be positive");
        assert!(
            self.zero_group_size > 0 && self.zero_group_size.is_multiple_of(self.group_size),
            "zero_group_size must be a positive multiple of group_size"
        );
    }

    /// Quantization levels (`2^bits`).
    pub fn levels(&self) -> u32 {
        1 << self.bits
    }

    /// Stored bytes per parameter, including scale/zero overhead (scales
    /// and zeros as f32 here; the byte accounting used by the cost model is
    /// in `klotski_model::spec::QuantScheme` with 16-bit metadata).
    pub fn bytes_per_param(&self) -> f64 {
        self.bits as f64 / 8.0 + 4.0 / self.group_size as f64 + 4.0 / self.zero_group_size as f64
    }
}

/// A quantized matrix: packed codes + per-group scales + shared zeros.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    config: QuantConfig,
    /// Bit-packed codes, row-major, groups padded to the row end.
    packed: Vec<u8>,
    /// One scale per scale-group.
    scales: Vec<f32>,
    /// One zero point per zero-group (in code units).
    zeros: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes `m` group-wise along rows (min/max affine quantization).
    ///
    /// Each run of `zero_group_size` values (flat-indexed across rows)
    /// shares a zero point placed at the run's minimum, and the run's
    /// `zero_group_size / group_size` scale groups share one scale — the
    /// zero group's span over `levels − 1` — so a single zero is exact for
    /// all of them. A code is `round(w / scale + zero)` clamped to the
    /// level range (NaN weights encode as 0); codes are bit-packed.
    ///
    /// Works one zero group at a time: min/max in one pass, then codes
    /// into a stack buffer that is packed in bulk (two codes per byte at
    /// 4 bits).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`QuantConfig`]).
    pub fn quantize(m: &Matrix, config: QuantConfig) -> Self {
        config.validate();
        /// Codes buffered on the stack between quantizing and packing.
        const CODE_CHUNK: usize = 256;
        let g = config.group_size as usize;
        let zg = config.zero_group_size as usize;
        let max_code = (config.levels() - 1) as u8;
        let data = m.as_slice();
        let n = data.len();
        let mut scales = Vec::with_capacity(n.div_ceil(g));
        let mut zeros = Vec::with_capacity(n.div_ceil(zg));
        let mut packer = BitPacker::new(config.bits, n);
        let mut codes = [0u8; CODE_CHUNK];
        for zgroup in data.chunks(zg) {
            let (lo, hi) = min_max(zgroup);
            // `w − lo` is monotone in `w`, so every scale group of the
            // zero group spans exactly `hi − lo`: one scale covers them.
            let scale = (hi - lo).max(1e-12) / f32::from(max_code);
            let zero = -lo / scale;
            zeros.push(zero);
            scales.extend(std::iter::repeat_n(scale, zgroup.len().div_ceil(g)));
            for part in zgroup.chunks(CODE_CHUNK) {
                let buf = &mut codes[..part.len()];
                for (c, &w) in buf.iter_mut().zip(part) {
                    *c = round_code(w / scale + zero, max_code);
                }
                packer.push_codes(buf);
            }
        }

        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            config,
            packed: packer.into_bytes(),
            scales,
            zeros,
        }
    }

    /// Reconstructs the full-precision matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.dequantize_into(&mut out);
        out
    }

    /// [`QuantizedMatrix::dequantize`] into a reused matrix, reshaping it
    /// as needed — the allocation-free form the native pipeline's I/O
    /// thread uses when staging into a resident slot buffer.
    ///
    /// Decodes a scale group at a time: the group's zero and scale are
    /// hoisted out of the inner loop and the packed bytes are drained in
    /// bulk (64-bit refills), instead of two integer divisions and a
    /// bit-stream state-machine call per element. Bit-identical to
    /// [`QuantizedMatrix::dequantize_reference_into`], the retained
    /// per-element formulation.
    pub fn dequantize_into(&self, out: &mut Matrix) {
        let g = self.config.group_size as usize;
        let zg = self.config.zero_group_size as usize;
        let n = self.rows * self.cols;
        let mut buf = std::mem::replace(out, Matrix::zeros(0, 0)).into_vec();
        buf.clear();
        buf.resize(n, 0.0);
        let mut unpacker = BitUnpacker::new(self.config.bits, &self.packed);
        // zero_group_size is a multiple of group_size, so each zero group
        // holds whole scale groups (the last of each may be ragged).
        let zgroups = buf.chunks_mut(zg).zip(self.scales.chunks(zg / g));
        for ((zspan, scales), &zero) in zgroups.zip(&self.zeros) {
            for (span, &scale) in zspan.chunks_mut(g).zip(scales) {
                unpacker.dequant_span(zero, scale, span);
            }
        }
        *out = Matrix::from_vec(self.rows, self.cols, buf);
    }

    /// The original per-element dequantization loop (two index divisions
    /// and a bit-stream call per value), kept so tests and the micro bench
    /// can pin [`QuantizedMatrix::dequantize_into`] bit-identical to the
    /// definition.
    pub fn dequantize_reference_into(&self, out: &mut Matrix) {
        let g = self.config.group_size as usize;
        let zg = self.config.zero_group_size as usize;
        let n = self.rows * self.cols;
        let mut buf = std::mem::replace(out, Matrix::zeros(0, 0)).into_vec();
        buf.clear();
        buf.reserve(n);
        let mut unpacker = BitUnpacker::new(self.config.bits, &self.packed);
        for i in 0..n {
            let code = unpacker.next() as f32;
            let gi = i / g;
            let zi = i / zg;
            buf.push((code - self.zeros[zi]) * self.scales[gi]);
        }
        *out = Matrix::from_vec(self.rows, self.cols, buf);
    }

    /// Dequantizes columns `c0..c1` of weight row `row` into `out`
    /// (`out.len() == c1 - c0`), walking the scale-group segments the
    /// range crosses with zero/scale hoisted per segment. Groups are
    /// flat-indexed, so a range may straddle group boundaries when `cols`
    /// is not a multiple of the group size.
    fn unpack_dequant_row_range(&self, row: usize, c0: usize, c1: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), c1 - c0);
        let g = self.config.group_size as usize;
        let zg = self.config.zero_group_size as usize;
        let start = row * self.cols + c0;
        let end = row * self.cols + c1;
        let mut unpacker = BitUnpacker::at(self.config.bits, &self.packed, start);
        let mut i = start;
        let mut o = 0usize;
        while i < end {
            let gi = i / g;
            let seg_end = ((gi + 1) * g).min(end);
            let len = seg_end - i;
            unpacker.dequant_span(self.zeros[i / zg], self.scales[gi], &mut out[o..o + len]);
            i = seg_end;
            o += len;
        }
    }

    /// `out = a · selfᵀ` with dequantization fused into the GEMM: 64-code
    /// panels of each weight row are unpacked into a stack buffer and fed
    /// straight to the register micro-kernels — no full-precision staging
    /// matrix. **Bit-identical** to `a.matmul_nt(&self.dequantize())`:
    /// the dequant expression is unchanged and each output element is the
    /// same ascending-k chain (`f32` accumulators spill/reload exactly
    /// across panels).
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != self.cols()`, or `out` is not
    /// `a.rows() × self.rows()`.
    pub fn matmul_nt_fused_into(&self, a: &Matrix, out: &mut Matrix) {
        self.matmul_nt_fused_with_backend(a, out, active_backend());
    }

    /// [`QuantizedMatrix::matmul_nt_fused_into`] with the kernel backend
    /// pinned explicitly. Bit-identical at any backend.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    // analyze: no_alloc
    pub fn matmul_nt_fused_with_backend(
        &self,
        a: &Matrix,
        out: &mut Matrix,
        backend: KernelBackend,
    ) {
        assert_eq!(a.cols(), self.cols, "inner dimension mismatch");
        assert_eq!(out.rows(), a.rows(), "output rows mismatch");
        assert_eq!(out.cols(), self.rows, "output cols mismatch");
        /// Panel width in codes: one paper-default scale group, and a
        /// multiple of every vector width — 2 KiB of stack per 8-row block.
        const FUSED_PANEL: usize = 64;
        /// Input rows per pass. All per-row accumulator blocks live on the
        /// stack (64 × 8 × 4 B = 2 KiB), so the kernel performs no heap
        /// allocation — a whole decode group fits one pass; larger inputs
        /// pay the panel unpack once more per extra 64-row pass. Chunking
        /// rows changes nothing bit-wise: every output element's chain
        /// belongs to exactly one row.
        const FUSED_ROWS: usize = 64;
        let (k, n) = (self.cols, self.rows);
        let mut panels = [[0.0f32; FUSED_PANEL]; NT_COLS];
        let mut acc = [[0.0f32; NT_COLS]; FUSED_ROWS];
        let mut i_base = 0usize;
        while i_base < a.rows() {
            let m = (a.rows() - i_base).min(FUSED_ROWS);
            let mut j = 0usize;
            while j + NT_COLS <= n {
                for block in acc.iter_mut().take(m) {
                    *block = [0.0; NT_COLS];
                }
                let mut k0 = 0usize;
                while k0 < k {
                    let k1 = (k0 + FUSED_PANEL).min(k);
                    let plen = k1 - k0;
                    for (u, panel) in panels.iter_mut().enumerate() {
                        self.unpack_dequant_row_range(j + u, k0, k1, &mut panel[..plen]);
                    }
                    let rows: [&[f32]; NT_COLS] = std::array::from_fn(|u| &panels[u][..plen]);
                    let mut i = 0usize;
                    while i + 2 <= m {
                        let (lo, hi) = acc.split_at_mut(i + 1);
                        crate::matrix::nt_micro_2xu_b(
                            backend,
                            &a.row(i_base + i)[k0..k1],
                            &a.row(i_base + i + 1)[k0..k1],
                            &rows,
                            &mut lo[i],
                            &mut hi[0],
                        );
                        i += 2;
                    }
                    if i < m {
                        crate::matrix::nt_micro_1xu_b(
                            backend,
                            &a.row(i_base + i)[k0..k1],
                            &rows,
                            &mut acc[i],
                        );
                    }
                    k0 = k1;
                }
                for (i, block) in acc.iter().enumerate().take(m) {
                    out.row_mut(i_base + i)[j..j + NT_COLS].copy_from_slice(block);
                }
                j += NT_COLS;
            }
            // Weight-row tail (< NT_COLS rows left): one row at a time,
            // each output element a plain sequential chain across the same
            // panels.
            if j < n {
                let mut panel = [0.0f32; FUSED_PANEL];
                let mut tail_acc = [0.0f32; FUSED_ROWS];
                for jj in j..n {
                    tail_acc[..m].fill(0.0);
                    let mut k0 = 0usize;
                    while k0 < k {
                        let k1 = (k0 + FUSED_PANEL).min(k);
                        let plen = k1 - k0;
                        self.unpack_dequant_row_range(jj, k0, k1, &mut panel[..plen]);
                        for (i, t) in tail_acc.iter_mut().enumerate().take(m) {
                            let mut s = *t;
                            for (&x, &y) in a.row(i_base + i)[k0..k1].iter().zip(&panel[..plen]) {
                                s += x * y;
                            }
                            *t = s;
                        }
                        k0 = k1;
                    }
                    for (i, &t) in tail_acc.iter().enumerate().take(m) {
                        out.row_mut(i_base + i)[jj] = t;
                    }
                }
            }
            i_base += m;
        }
    }

    /// Becomes a copy of `src`, reusing the existing buffers when capacity
    /// allows — the packed-bytes analogue of [`Matrix::copy_from`], used
    /// when transferring a quantized expert into a resident slot.
    pub fn copy_from(&mut self, src: &QuantizedMatrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.config = src.config;
        self.packed.clear();
        self.packed.extend_from_slice(&src.packed);
        self.scales.clear();
        self.scales.extend_from_slice(&src.scales);
        self.zeros.clear();
        self.zeros.extend_from_slice(&src.zeros);
    }

    /// Rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantizer configuration.
    pub fn config(&self) -> QuantConfig {
        self.config
    }

    /// Actual stored bytes (codes + scales + zeros).
    pub fn stored_bytes(&self) -> usize {
        self.packed.len() + 4 * self.scales.len() + 4 * self.zeros.len()
    }

    /// Worst-case absolute reconstruction error: half a quantization step
    /// of the largest scale.
    pub fn error_bound(&self) -> f32 {
        self.scales.iter().fold(0.0f32, |a, &s| a.max(s)) * 0.5 + 1e-6
    }
}

#[cfg(test)]
impl QuantizedMatrix {
    /// The original per-element quantizer (two index divisions, an `f32`
    /// division, `round` and a bit-stream push per weight, plus a per
    /// scale-group span fold and an equalize pass over each zero group),
    /// kept to pin [`QuantizedMatrix::quantize`] byte-identical to it.
    fn quantize_reference(m: &Matrix, config: QuantConfig) -> Self {
        config.validate();
        let g = config.group_size as usize;
        let zg = config.zero_group_size as usize;
        let levels = config.levels() as f32;
        let data = m.as_slice();
        let n = data.len();
        let n_groups = n.div_ceil(g);
        let n_zgroups = n.div_ceil(zg);

        // Zero points: one per zero-group, from the group min (code-unit
        // convention: code = w/scale + zero).
        let mut zeros = vec![0.0f32; n_zgroups];
        let mut zgroup_mins = vec![f32::INFINITY; n_zgroups];
        let mut zgroup_maxs = vec![f32::NEG_INFINITY; n_zgroups];
        for (i, &w) in data.iter().enumerate() {
            let zi = i / zg;
            zgroup_mins[zi] = zgroup_mins[zi].min(w);
            zgroup_maxs[zi] = zgroup_maxs[zi].max(w);
        }

        // Scales: per scale-group from the group range, but the zero point
        // must cover the zero-group's min, so scale uses the zero-group min
        // as the offset origin.
        let mut scales = vec![1.0f32; n_groups];
        for (gi, scale) in scales.iter_mut().enumerate() {
            let lo = gi * g;
            let hi = (lo + g).min(n);
            let zi = lo / zg;
            let origin = zgroup_mins[zi];
            let span = data[lo..hi]
                .iter()
                .fold(0.0f32, |acc, &w| acc.max(w - origin));
            let span = span.max(zgroup_maxs[zi] - origin).max(1e-12);
            *scale = span / (levels - 1.0);
        }
        for (zi, zero) in zeros.iter_mut().enumerate() {
            // zero in code units relative to the *first* scale group of the
            // zero group (scales within a zero group are equalized below).
            let first_group = zi * zg / g;
            *zero = -zgroup_mins[zi] / scales[first_group];
            // Equalize the scales across the zero group so one zero works.
            let last_group = ((zi + 1) * zg).div_ceil(g).min(n_groups);
            let max_scale = scales[first_group..last_group]
                .iter()
                .fold(0.0f32, |a, &s| a.max(s));
            for s in &mut scales[first_group..last_group] {
                *s = max_scale;
            }
            *zero = -zgroup_mins[zi] / max_scale;
        }

        // Pack codes.
        let mut packer = BitPacker::new(config.bits, n);
        for (i, &w) in data.iter().enumerate() {
            let gi = i / g;
            let zi = i / zg;
            let code = (w / scales[gi] + zeros[zi]).round();
            let code = code.clamp(0.0, levels - 1.0) as u32;
            packer.push(code);
        }

        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            config,
            packed: packer.into_bytes(),
            scales,
            zeros,
        }
    }
}

/// The minimum and maximum of `values` as the left-to-right scan
/// `if w < lo { lo = w }` (and `w > hi`) from `±inf` finds them: NaNs are
/// skipped, and of equal values the first wins, which decides the sign of
/// a zero result. Eight lanes scan side by side so the loop vectorizes; a
/// zero result then takes the sign of the first zero in `values`.
fn min_max(values: &[f32]) -> (f32, f32) {
    const LANES: usize = 8;
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let chunks = values.chunks_exact(LANES);
    let rest = chunks.remainder();
    for c in chunks {
        for l in 0..LANES {
            if c[l] < lo[l] {
                lo[l] = c[l];
            }
            if c[l] > hi[l] {
                hi[l] = c[l];
            }
        }
    }
    let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
    for &w in lo.iter().chain(rest) {
        if w < min {
            min = w;
        }
    }
    for &w in hi.iter().chain(rest) {
        if w > max {
            max = w;
        }
    }
    let first_zero = || values.iter().copied().find(|&w| w == 0.0);
    if min == 0.0 {
        min = first_zero().unwrap_or(min);
    }
    if max == 0.0 {
        max = first_zero().unwrap_or(max);
    }
    (min, max)
}

/// `round(t).clamp(0, max_code)` as an integer code (NaN gives 0), written
/// as truncate-and-compare so it vectorizes: on the clamped value `c ∈
/// [0, max_code]`, `c − trunc(c)` is exact, and rounding half away from
/// zero is `trunc(c) + (frac ≥ 0.5)`.
#[inline]
fn round_code(t: f32, max_code: u8) -> u8 {
    let c = t.max(0.0).min(f32::from(max_code));
    // SAFETY: `max` maps NaN to 0, so `c` is finite and in `[0, 255]`
    // (`max_code` is a `u8`), which `i32` represents. The unchecked form
    // vectorizes where the saturating `as` cast does not (measured 3.7×
    // on the quantizer's code loop).
    let whole: i32 = unsafe { c.to_int_unchecked() };
    (whole + i32::from(c - whole as f32 >= 0.5)) as u8
}

/// Packs `bits`-wide codes into a little-endian byte stream.
#[derive(Debug)]
struct BitPacker {
    bits: u32,
    acc: u64,
    acc_bits: u32,
    out: Vec<u8>,
}

impl BitPacker {
    fn new(bits: u32, capacity_values: usize) -> Self {
        BitPacker {
            bits,
            acc: 0,
            acc_bits: 0,
            out: Vec::with_capacity((capacity_values * bits as usize).div_ceil(8)),
        }
    }

    fn push(&mut self, code: u32) {
        debug_assert!(code < (1 << self.bits), "code out of range");
        self.acc |= (code as u64) << self.acc_bits;
        self.acc_bits += self.bits;
        while self.acc_bits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.acc_bits -= 8;
        }
    }

    /// Pushes a run of codes; at 4 bits on a byte boundary, two codes go
    /// into each byte directly (low nibble first, as [`BitPacker::push`]
    /// would place them).
    fn push_codes(&mut self, mut codes: &[u8]) {
        if self.bits == 4 && self.acc_bits == 0 {
            let pairs = codes.chunks_exact(2);
            let rest = pairs.remainder();
            self.out.extend(pairs.map(|p| p[0] | (p[1] << 4)));
            codes = rest;
        }
        for &c in codes {
            self.push(c as u32);
        }
    }

    fn into_bytes(mut self) -> Vec<u8> {
        if self.acc_bits > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
        self.out
    }
}

/// Streams codes back out of a packed byte stream.
#[derive(Debug)]
struct BitUnpacker<'a> {
    bits: u32,
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    acc_bits: u32,
}

impl<'a> BitUnpacker<'a> {
    fn new(bits: u32, bytes: &'a [u8]) -> Self {
        BitUnpacker {
            bits,
            bytes,
            pos: 0,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Seeks straight to `value_index` in the stream — random access for
    /// kernels that start mid-row. The accumulator is seeded from the
    /// containing byte with the leading bits shifted off, so subsequent
    /// reads are identical to having streamed from the start.
    fn at(bits: u32, bytes: &'a [u8], value_index: usize) -> Self {
        let bit_offset = value_index * bits as usize;
        let mut u = BitUnpacker {
            bits,
            bytes,
            pos: bit_offset / 8,
            acc: 0,
            acc_bits: 0,
        };
        let skip = (bit_offset % 8) as u32;
        if skip > 0 {
            let byte = u.bytes.get(u.pos).copied().unwrap_or(0);
            u.acc = (byte as u64) >> skip;
            u.acc_bits = 8 - skip;
            u.pos += 1;
        }
        u
    }

    fn next(&mut self) -> u32 {
        while self.acc_bits < self.bits {
            let byte = self.bytes.get(self.pos).copied().unwrap_or(0);
            self.acc |= (byte as u64) << self.acc_bits;
            self.acc_bits += 8;
            self.pos += 1;
        }
        let mask = (1u64 << self.bits) - 1;
        let code = (self.acc & mask) as u32;
        self.acc >>= self.bits;
        self.acc_bits -= self.bits;
        code
    }

    /// Decodes `out.len()` consecutive codes as `(code − zero) · scale` —
    /// the dequant expression with the group constants hoisted — refilling
    /// the accumulator in bulk (one 64-bit load when it runs empty inside
    /// the stream) instead of byte-at-a-time per value; 4-bit codes are
    /// read straight from whole bytes ([`BitUnpacker::dequant_nibbles`]).
    /// Produces exactly the codes repeated [`BitUnpacker::next`] calls
    /// would, including the zero padding past the end of the stream.
    fn dequant_span(&mut self, zero: f32, scale: f32, out: &mut [f32]) {
        let out = if self.bits == 4 {
            self.dequant_nibbles(zero, scale, out)
        } else {
            out
        };
        let mask = (1u64 << self.bits) - 1;
        let mut i = 0usize;
        while i < out.len() {
            if self.acc_bits < self.bits {
                if self.acc_bits == 0 && self.pos + 8 <= self.bytes.len() {
                    let word = &self.bytes[self.pos..self.pos + 8];
                    self.acc = u64::from_le_bytes(word.try_into().unwrap());
                    self.acc_bits = 64;
                    self.pos += 8;
                } else {
                    while self.acc_bits <= 56 {
                        let byte = self.bytes.get(self.pos).copied().unwrap_or(0);
                        self.acc |= (byte as u64) << self.acc_bits;
                        self.acc_bits += 8;
                        self.pos += 1;
                    }
                }
            }
            let avail = (self.acc_bits / self.bits) as usize;
            let take = avail.min(out.len() - i);
            for o in &mut out[i..i + take] {
                let code = (self.acc & mask) as u32;
                self.acc >>= self.bits;
                self.acc_bits -= self.bits;
                *o = (code as f32 - zero) * scale;
            }
            i += take;
        }
    }

    /// The 4-bit fast path of [`BitUnpacker::dequant_span`]: drains any
    /// buffered nibble (a span that starts mid-byte), then decodes whole
    /// bytes, two codes each, low nibble first. Returns the part of `out`
    /// left for the generic path — only what lies past the end of the
    /// stream.
    fn dequant_nibbles<'o>(
        &mut self,
        zero: f32,
        scale: f32,
        mut out: &'o mut [f32],
    ) -> &'o mut [f32] {
        while self.acc_bits >= 4 && !out.is_empty() {
            out[0] = ((self.acc & 0xf) as f32 - zero) * scale;
            self.acc >>= 4;
            self.acc_bits -= 4;
            out = &mut out[1..];
        }
        if out.is_empty() {
            return out;
        }
        // The accumulator is empty: the stream is byte-aligned from here.
        let bytes = &self.bytes[self.pos.min(self.bytes.len())..];
        let pairs = (out.len() / 2).min(bytes.len());
        let (head, mut rest) = out.split_at_mut(2 * pairs);
        for (o, &b) in head.chunks_exact_mut(2).zip(bytes) {
            o[0] = ((b & 0xf) as f32 - zero) * scale;
            o[1] = ((b >> 4) as f32 - zero) * scale;
        }
        self.pos += pairs;
        if rest.len() == 1 && pairs < bytes.len() {
            let b = bytes[pairs];
            rest[0] = ((b & 0xf) as f32 - zero) * scale;
            self.acc = (b >> 4) as u64;
            self.acc_bits = 4;
            self.pos += 1;
            rest = &mut rest[1..];
        }
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_matrix;

    #[test]
    fn round_trip_error_is_bounded() {
        let m = seeded_matrix(32, 128, 7, 1.0);
        let q = QuantizedMatrix::quantize(&m, QuantConfig::paper_default());
        let d = q.dequantize();
        let err = m.max_abs_diff(&d);
        assert!(
            err <= q.error_bound(),
            "err {err} > bound {}",
            q.error_bound()
        );
        // 4-bit over [-1,1]-ish weights: error well under 0.2.
        assert!(err < 0.2, "err = {err}");
    }

    #[test]
    fn more_bits_means_less_error() {
        let m = seeded_matrix(16, 256, 3, 1.0);
        let errs: Vec<f32> = [3u32, 4, 6, 8]
            .iter()
            .map(|&bits| {
                let cfg = QuantConfig {
                    bits,
                    ..QuantConfig::paper_default()
                };
                m.max_abs_diff(&QuantizedMatrix::quantize(&m, cfg).dequantize())
            })
            .collect();
        assert!(
            errs[0] > errs[1] && errs[1] > errs[2] && errs[2] > errs[3],
            "{errs:?}"
        );
    }

    #[test]
    fn storage_shrinks_roughly_four_x_at_4_bits() {
        let m = seeded_matrix(64, 256, 1, 1.0);
        let q = QuantizedMatrix::quantize(&m, QuantConfig::paper_default());
        let full = 4 * 64 * 256;
        let ratio = q.stored_bytes() as f64 / full as f64;
        assert!((0.12..0.20).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn constant_matrix_quantizes_exactly() {
        let m = Matrix::from_fn(8, 64, |_, _| 0.75);
        let q = QuantizedMatrix::quantize(&m, QuantConfig::paper_default());
        assert!(m.max_abs_diff(&q.dequantize()) < 1e-5);
    }

    #[test]
    fn ragged_tail_group_round_trips() {
        // 100 cols is not a multiple of 64: the tail group is short.
        let m = seeded_matrix(3, 100, 5, 2.0);
        let q = QuantizedMatrix::quantize(&m, QuantConfig::paper_default());
        let d = q.dequantize();
        assert_eq!(d.rows(), 3);
        assert_eq!(d.cols(), 100);
        assert!(m.max_abs_diff(&d) <= q.error_bound());
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=8")]
    fn invalid_bits_rejected() {
        let m = Matrix::zeros(2, 2);
        let _ = QuantizedMatrix::quantize(
            &m,
            QuantConfig {
                bits: 1,
                group_size: 64,
                zero_group_size: 128,
            },
        );
    }

    #[test]
    fn grouped_dequantize_matches_reference_bitwise() {
        for (rows, cols) in [(32usize, 128usize), (3, 100), (1, 1), (0, 7), (5, 63)] {
            let m = seeded_matrix(rows, cols, 11, 1.5);
            let q = QuantizedMatrix::quantize(&m, QuantConfig::paper_default());
            let mut fast = Matrix::zeros(0, 0);
            let mut reference = Matrix::zeros(0, 0);
            q.dequantize_into(&mut fast);
            q.dequantize_reference_into(&mut reference);
            assert_eq!(fast, reference, "{rows}x{cols}");
        }
    }

    #[test]
    fn unpacker_at_matches_streaming() {
        for bits in 2..=8u32 {
            let codes: Vec<u32> = (0..200).map(|i| (i * 37 + 11) % (1 << bits)).collect();
            let mut p = BitPacker::new(bits, codes.len());
            for &c in &codes {
                p.push(c);
            }
            let bytes = p.into_bytes();
            for start in [0usize, 1, 7, 63, 64, 65, 199] {
                let mut u = BitUnpacker::at(bits, &bytes, start);
                for (off, &c) in codes[start..].iter().enumerate() {
                    assert_eq!(u.next(), c, "bits {bits} start {start} off {off}");
                }
            }
        }
    }

    #[test]
    fn dequant_span_matches_streaming_for_any_split() {
        // Odd span lengths leave 4-bit spans starting mid-byte, and the
        // last spans run past the end of the stream (zero padding).
        for bits in 2..=8u32 {
            let codes: Vec<u32> = (0..150).map(|i| (i * 29 + 3) % (1 << bits)).collect();
            let mut p = BitPacker::new(bits, codes.len());
            for &c in &codes {
                p.push(c);
            }
            let bytes = p.into_bytes();
            let mut stream = BitUnpacker::new(bits, &bytes);
            let mut spans = BitUnpacker::new(bits, &bytes);
            for len in [1usize, 3, 2, 7, 64, 5, 1, 16, 33, 30] {
                let mut out = vec![0.0f32; len];
                spans.dequant_span(2.0, 0.5, &mut out);
                for (off, &o) in out.iter().enumerate() {
                    let want = (stream.next() as f32 - 2.0) * 0.5;
                    assert_eq!(
                        o.to_bits(),
                        want.to_bits(),
                        "bits {bits} len {len} off {off}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_gemm_matches_dequantize_then_gemm() {
        let w = seeded_matrix(24, 96, 9, 1.0);
        let q = QuantizedMatrix::quantize(&w, QuantConfig::paper_default());
        let a = seeded_matrix(5, 96, 4, 1.0);
        let staged = a.matmul_nt(&q.dequantize());
        let mut fused = Matrix::zeros(5, 24);
        q.matmul_nt_fused_into(&a, &mut fused);
        assert_eq!(fused, staged);
    }

    #[test]
    fn fused_gemm_handles_empty_shapes() {
        let cfg = QuantConfig::paper_default();
        // Zero a-rows.
        let q = QuantizedMatrix::quantize(&seeded_matrix(8, 16, 1, 1.0), cfg);
        let mut out = Matrix::zeros(0, 8);
        q.matmul_nt_fused_into(&Matrix::zeros(0, 16), &mut out);
        assert_eq!(out, Matrix::zeros(0, 8));
        // Zero weight rows.
        let q = QuantizedMatrix::quantize(&Matrix::zeros(0, 16), cfg);
        let mut out = Matrix::zeros(3, 0);
        q.matmul_nt_fused_into(&seeded_matrix(3, 16, 2, 1.0), &mut out);
        assert_eq!(out.rows(), 3);
        // Zero inner dimension: output must still be written (zeros).
        let q = QuantizedMatrix::quantize(&Matrix::zeros(4, 0), cfg);
        let mut out = Matrix::from_fn(2, 4, |_, _| 9.0);
        q.matmul_nt_fused_into(&Matrix::zeros(2, 0), &mut out);
        assert_eq!(out, Matrix::zeros(2, 4));
    }

    #[test]
    fn quantized_copy_from_round_trips() {
        let cfg = QuantConfig::paper_default();
        let src = QuantizedMatrix::quantize(&seeded_matrix(8, 64, 3, 1.0), cfg);
        let mut dst = QuantizedMatrix::quantize(&Matrix::zeros(0, 0), cfg);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.dequantize(), src.dequantize());
    }

    #[test]
    fn bit_packer_round_trips_all_widths() {
        for bits in 2..=8u32 {
            let codes: Vec<u32> = (0..100).map(|i| i % (1 << bits)).collect();
            let mut p = BitPacker::new(bits, codes.len());
            for &c in &codes {
                p.push(c);
            }
            let bytes = p.into_bytes();
            assert_eq!(bytes.len(), (100 * bits as usize).div_ceil(8));
            let mut u = BitUnpacker::new(bits, &bytes);
            for &c in &codes {
                assert_eq!(u.next(), c, "width {bits}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The group configs the byte-identity proptests draw from: small
    /// groups (32, 64) or the paper default (64, 128).
    fn config(bits: u32, paper: u32) -> QuantConfig {
        if paper == 1 {
            QuantConfig {
                bits,
                ..QuantConfig::paper_default()
            }
        } else {
            QuantConfig {
                bits,
                group_size: 32,
                zero_group_size: 64,
            }
        }
    }

    proptest! {
        /// Round-trip error never exceeds the analytic bound, for random
        /// shapes, widths and value ranges.
        #[test]
        fn quantize_error_bound_holds(
            rows in 1usize..6,
            cols in 1usize..200,
            bits in 3u32..=8,
            scale in 0.01f32..100.0,
            seed in 0u64..50,
        ) {
            let m = crate::init::seeded_matrix(rows, cols, seed, scale);
            let cfg = QuantConfig { bits, group_size: 32, zero_group_size: 64 };
            let q = QuantizedMatrix::quantize(&m, cfg);
            let d = q.dequantize();
            prop_assert!(m.max_abs_diff(&d) <= q.error_bound() * 1.001);
        }

        /// The group-at-a-time quantizer is byte-identical to the retained
        /// per-element one — packed bytes, and scales and zeros to the bit
        /// — for bits 2–8, both group configs, ragged tails, constant
        /// rows, rows of mixed-sign zeros, and NaN/±inf/±0 entries.
        #[test]
        fn quantize_matches_reference(
            rows in 0usize..5,
            cols in 0usize..300,
            bits in 2u32..=8,
            paper in 0u32..2,
            seed in 0u64..50,
            row_kinds in proptest::collection::vec(0u8..5, 5),
            specials in proptest::collection::vec((0usize..10_000, 0u8..5), 0..6),
        ) {
            let mut m = crate::init::seeded_matrix(rows, cols, seed, 1.0);
            for (r, &kind) in row_kinds.iter().enumerate().take(rows) {
                for (c, w) in m.row_mut(r).iter_mut().enumerate() {
                    *w = match kind {
                        0 => *w,
                        1 => 0.75,
                        2 => if (c as u64 + seed).is_multiple_of(3) { -0.0 } else { 0.0 },
                        3 => w.abs(),
                        // Half steps over the whole code range: where a
                        // zero group holds both ends, scale is 1 and codes
                        // land exactly on rounding ties.
                        _ => (c % ((2 << bits) - 1)) as f32 * 0.5,
                    };
                }
            }
            let n = rows * cols;
            for &(at, kind) in &specials {
                if n > 0 {
                    m.as_mut_slice()[at % n] =
                        [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind as usize];
                }
            }
            let cfg = config(bits, paper);
            let fast = QuantizedMatrix::quantize(&m, cfg);
            let reference = QuantizedMatrix::quantize_reference(&m, cfg);
            prop_assert_eq!((fast.rows, fast.cols, fast.config), (rows, cols, cfg));
            prop_assert_eq!(&fast.packed, &reference.packed);
            let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits_of(&fast.scales), bits_of(&reference.scales));
            prop_assert_eq!(bits_of(&fast.zeros), bits_of(&reference.zeros));
        }

        /// The grouped bulk dequantizer is byte-identical to the retained
        /// per-element reference for every bit width, both group configs
        /// and ragged tails (odd `cols`, so 4-bit rows start mid-byte).
        #[test]
        fn grouped_dequantize_matches_reference(
            rows in 0usize..6,
            cols in 0usize..300,
            bits in 2u32..=8,
            paper in 0u32..2,
            seed in 0u64..50,
        ) {
            let m = crate::init::seeded_matrix(rows, cols, seed, 1.0);
            let cfg = config(bits, paper);
            let q = QuantizedMatrix::quantize(&m, cfg);
            let mut fast = Matrix::zeros(0, 0);
            let mut reference = Matrix::zeros(0, 0);
            q.dequantize_into(&mut fast);
            q.dequantize_reference_into(&mut reference);
            prop_assert_eq!(fast, reference);
        }

        /// The fused quantized GEMM is byte-identical to dequantize +
        /// `matmul_nt` for every bit width 2–8, both group configs, ragged
        /// tail groups (cols not a multiple of the group size), odd `k`
        /// (4-bit weight rows that start mid-byte), weight-row tails (< 8
        /// rows left), and every available kernel backend.
        #[test]
        fn fused_gemm_matches_staged_exactly(
            m in 0usize..7,
            k_half in 0usize..100,
            k_odd in 0usize..2,
            n in 0usize..20,
            bits in 2u32..=8,
            paper in 0u32..2,
            seed in 0u64..50,
        ) {
            let k = 2 * k_half + k_odd;
            let w = crate::init::seeded_matrix(n, k, seed, 1.0);
            let cfg = config(bits, paper);
            let q = QuantizedMatrix::quantize(&w, cfg);
            let a = crate::init::seeded_matrix(m, k, seed.wrapping_add(17), 1.0);
            let deq = q.dequantize();
            for backend in [KernelBackend::Scalar, KernelBackend::Sse2, KernelBackend::Avx2] {
                if !backend.is_available() {
                    continue;
                }
                let mut staged = Matrix::zeros(m, n);
                a.matmul_nt_into_with_backend(&deq, &mut staged, 1, backend);
                let mut fused = Matrix::from_fn(m, n, |_, _| -7.0);
                q.matmul_nt_fused_with_backend(&a, &mut fused, backend);
                prop_assert_eq!(&fused, &staged, "backend {}", backend);
            }
        }

        /// Bit-packing round-trips arbitrary code streams.
        #[test]
        fn packer_round_trips(
            bits in 2u32..=8,
            codes in proptest::collection::vec(0u32..256, 0..300),
        ) {
            let codes: Vec<u32> = codes.iter().map(|&c| c % (1 << bits)).collect();
            let mut p = BitPacker::new(bits, codes.len());
            for &c in &codes {
                p.push(c);
            }
            let bytes = p.into_bytes();
            let mut u = BitUnpacker::new(bits, &bytes);
            for &c in &codes {
                prop_assert_eq!(u.next(), c);
            }
        }
    }
}
