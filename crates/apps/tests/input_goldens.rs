//! Cross-commit goldens for the generated inputs of the dense apps: an
//! FNV-1a hash over each buffer's words, little-endian, in declaration
//! order (`SpmvData::generate` is pinned the same way in the suite's
//! `tests/weighted.rs`). Printed at commit e6bb616 under the generator
//! `plb-rng` replaced — the inputs every host run, `plbmark`'s `host-bs`
//! among them, has computed on — and passed unmodified by the swap.

use plb_apps::blackscholes::BsData;
use plb_apps::grn::GrnData;
use plb_apps::matmul::MatMulData;
use plb_apps::nnlayer::NnLayerData;

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv_f32<'a>(words: impl IntoIterator<Item = &'a f32>) -> u64 {
    fnv(words.into_iter().flat_map(|w| w.to_bits().to_le_bytes()))
}

#[test]
fn black_scholes_options_keep_their_bits() {
    let data = BsData::generate(1_000, 7);
    let fields = (data.options.iter()).flat_map(|o| [&o.s, &o.k, &o.t, &o.r, &o.sigma]);
    assert_eq!(fnv_f32(fields), 0xe57d_536a_f203_0563);
}

#[test]
fn matmul_operands_keep_their_bits() {
    let data = MatMulData::generate(24, 7);
    assert_eq!(fnv_f32(data.a.iter().chain(&data.b)), 0xa380_6130_9c9c_0bd7);
}

#[test]
fn grn_expression_matrix_keeps_its_bytes() {
    let data = GrnData::generate(40, 64, 7);
    assert_eq!(fnv(data.expr.iter().copied()), 0x5736_664a_4679_5047);
}

#[test]
fn nn_layer_keeps_its_bits() {
    let data = NnLayerData::generate(16, 32, 8, 7);
    assert_eq!(fnv_f32(&data.weights), 0x7d19_51d3_9119_22d6);
    let all = data.weights.iter().chain(&data.biases).chain(&data.batch);
    assert_eq!(fnv_f32(all), 0x9348_3b96_ab3a_8112);
}
