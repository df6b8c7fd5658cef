//! The DRAM-tier expert store.
//!
//! Experts are the offloaded tensor class (they dominate MoE parameter
//! counts); attention, gate and norm weights stay resident. The store can
//! hold experts quantized — fetching then either performs the
//! dequantization the paper does "before computation" (§7) on the I/O
//! thread ([`ExpertStore::fetch_into`]), or hands over the packed bytes
//! themselves ([`ExpertStore::fetch_packed_into`]) for the fused
//! quantized-GEMM path, where compute runs straight off the codes and no
//! full-precision slab ever exists in the slot buffer.

use klotski_moe::model::MoeModel;
use klotski_moe::weights::{ExpertWeights, QuantizedExpertWeights};
use klotski_tensor::quant::QuantConfig;

/// One expert as stored in the DRAM tier.
#[derive(Debug, Clone)]
pub enum StoredExpert {
    /// Full precision (fetch is a copy).
    Full(ExpertWeights),
    /// Group-quantized (fetch dequantizes, or copies the packed bytes).
    Quantized(QuantizedExpertWeights),
}

/// The expert weights of a whole model, held in the slow tier.
#[derive(Debug, Clone)]
pub struct ExpertStore {
    experts: Vec<Vec<StoredExpert>>,
}

impl ExpertStore {
    /// Builds a store from `model`'s weights, optionally quantizing.
    pub fn from_model(model: &MoeModel, quant: Option<QuantConfig>) -> Self {
        let experts = model
            .weights()
            .layers
            .iter()
            .map(|layer| {
                layer
                    .experts
                    .iter()
                    .map(|e| match quant {
                        None => StoredExpert::Full(e.clone()),
                        Some(cfg) => {
                            StoredExpert::Quantized(QuantizedExpertWeights::quantize(e, cfg))
                        }
                    })
                    .collect()
            })
            .collect();
        ExpertStore { experts }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.experts.len()
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.experts.first().map_or(0, Vec::len)
    }

    /// Fetches (`layer`, `expert`) into "VRAM": clones full-precision
    /// weights or dequantizes — the I/O-thread work of one expert transfer.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn fetch(&self, layer: usize, expert: usize) -> ExpertWeights {
        let mut out = ExpertWeights::placeholder();
        self.fetch_into(layer, expert, &mut out);
        out
    }

    /// [`ExpertStore::fetch`] into a reused slot buffer: after the buffer
    /// has been used once, every subsequent fetch is a pure copy (or
    /// dequantization) into resident memory with **no allocation** — the
    /// VRAM-slot-buffer reuse a real offloading runtime gets from its
    /// staging pool.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn fetch_into(&self, layer: usize, expert: usize, out: &mut ExpertWeights) {
        match &self.experts[layer][expert] {
            StoredExpert::Full(w) => {
                out.w1.copy_from(&w.w1);
                out.w2.copy_from(&w.w2);
                out.w3.copy_from(&w.w3);
            }
            StoredExpert::Quantized(q) => q.dequantize_into(out),
        }
    }

    /// Whether the store holds experts in quantized form.
    pub fn is_quantized(&self) -> bool {
        matches!(
            self.experts.first().and_then(|l| l.first()),
            Some(StoredExpert::Quantized(_))
        )
    }

    /// Fetches the **packed** form of (`layer`, `expert`) into a reused
    /// slot: a copy of `bits/8 + metadata` bytes per parameter instead of
    /// a 4-byte-per-parameter dequantized slab — the transfer the fused
    /// quantized-GEMM compute path runs from.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or the store is not
    /// quantized.
    pub fn fetch_packed_into(&self, layer: usize, expert: usize, out: &mut QuantizedExpertWeights) {
        match &self.experts[layer][expert] {
            StoredExpert::Full(_) => {
                panic!("fetch_packed_into on a full-precision store")
            }
            StoredExpert::Quantized(q) => out.copy_from(q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_moe::config::MoeConfig;

    #[test]
    fn full_store_fetches_identical_weights() {
        let model = MoeModel::new(MoeConfig::tiny(7));
        let store = ExpertStore::from_model(&model, None);
        assert_eq!(store.n_layers(), 4);
        assert_eq!(store.n_experts(), 6);
        let fetched = store.fetch(2, 3);
        assert_eq!(&fetched, &model.weights().layers[2].experts[3]);
    }

    #[test]
    fn quantized_store_fetches_close_weights() {
        let model = MoeModel::new(MoeConfig::tiny(7));
        let store = ExpertStore::from_model(&model, Some(QuantConfig::paper_default()));
        assert!(store.is_quantized());
        let fetched = store.fetch(1, 2);
        let original = &model.weights().layers[1].experts[2];
        let err = fetched.w1.max_abs_diff(&original.w1);
        assert!(err > 0.0, "quantization must not be lossless here");
        assert!(err < 0.05, "4-bit error too large: {err}");
    }

    #[test]
    fn packed_fetch_matches_dequantized_fetch_bitwise() {
        use klotski_moe::weights::QuantizedExpertWeights;
        let model = MoeModel::new(MoeConfig::tiny(7));
        let qcfg = QuantConfig::paper_default();
        let store = ExpertStore::from_model(&model, Some(qcfg));
        let mut packed = QuantizedExpertWeights::placeholder(qcfg);
        store.fetch_packed_into(2, 1, &mut packed);
        let mut via_packed = ExpertWeights::placeholder();
        packed.dequantize_into(&mut via_packed);
        assert_eq!(via_packed, store.fetch(2, 1));
        assert!(!ExpertStore::from_model(&model, None).is_quantized());
    }

    /// FNV-1a over a `Debug` rendering, streamed so the multi-megabyte
    /// text of a whole store is never held in memory.
    struct Fnv(u64);

    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }

    /// Golden pin of the packed store: every expert of the
    /// `native_throughput` bench model (4 layers × 8 experts, d_model 256,
    /// d_ff 1024) quantized at the paper default. The `Debug` form prints
    /// every field of each matrix — shape, config, packed bytes, scales and
    /// zeros — and `f32` `Debug` is the shortest round-trip form, so any
    /// change to a code byte or to the bits of a scale or zero changes the
    /// hash. Never re-bless: the quantizer's output is a storage format.
    #[test]
    fn quantized_store_golden_pin() {
        use std::fmt::Write as _;
        let model = MoeModel::new(MoeConfig {
            n_layers: 4,
            d_model: 256,
            d_ff: 1024,
            n_heads: 8,
            head_dim: 32,
            n_experts: 8,
            top_k: 2,
            vocab: 512,
            seed: 77,
        });
        let store = ExpertStore::from_model(&model, Some(QuantConfig::paper_default()));
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for expert in store.experts.iter().flatten() {
            match expert {
                StoredExpert::Quantized(q) => write!(h, "{q:?}").unwrap(),
                StoredExpert::Full(_) => unreachable!("store is quantized"),
            }
        }
        assert_eq!(h.0, 0x9ca2_739f_2fcc_f686, "packed store changed");
    }

    #[test]
    #[should_panic(expected = "full-precision store")]
    fn packed_fetch_rejects_full_store() {
        use klotski_moe::weights::QuantizedExpertWeights;
        let model = MoeModel::new(MoeConfig::tiny(7));
        let store = ExpertStore::from_model(&model, None);
        let mut packed = QuantizedExpertWeights::placeholder(QuantConfig::paper_default());
        store.fetch_packed_into(0, 0, &mut packed);
    }
}
