//! Golden-image pins: the container encoders must keep producing exactly
//! the bytes the format has always had, so every file written by an
//! earlier build still loads.
//!
//! Each fixture is built deterministically (fixed metadata, a fixed
//! `created_at_unix`, models fitted on fixed data) and its encoded image
//! is pinned by length and CRC-32. The pinned CRCs were computed with
//! Python's `zlib.crc32` over images written by the byte-by-byte table
//! implementation, so they do not trust the checksum kernel under test.

use f2pm_features::{AggregationConfig, Column, ColumnData, ColumnStore};
use f2pm_linalg::Matrix;
use f2pm_ml::kernel::Kernel;
use f2pm_ml::linreg::LinearModel;
use f2pm_ml::{
    LsSvmRegressor, M5Params, M5Prime, RepTree, RepTreeParams, SavedModel, SvrParams, SvrRegressor,
};
use f2pm_registry::artifact::{decode, encode};
use f2pm_registry::{crc32, decode_columns, encode_columns, ArtifactMeta};

/// Deterministic pseudo-random stream (SplitMix64) in [0, 1).
fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    }
}

/// A 13-row store (not a multiple of 8, so every f32 column ends on a
/// pad) with f32 and f64 columns interleaved and IEEE edge values.
fn golden_store() -> ColumnStore {
    const ROWS: usize = 13;
    let mut next = unit_stream(42);
    let run_id: Vec<f64> = (0..ROWS).map(|i| (i / 5) as f64).collect();
    let mut mem: Vec<f32> = (0..ROWS).map(|_| (next() * 4096.0) as f32).collect();
    mem[3] = -0.0;
    mem[7] = f32::from_bits(1); // smallest subnormal
    let mut t: Vec<f64> = (0..ROWS).map(|i| i as f64 * 30.0 + next()).collect();
    t[12] = f64::MAX;
    let swap: Vec<f32> = (0..ROWS).map(|_| (next() * 100.0 - 50.0) as f32).collect();
    let columns = vec![
        Column {
            name: "run_id".to_string(),
            data: ColumnData::F64(run_id),
        },
        Column {
            name: "mem_used".to_string(),
            data: ColumnData::F32(mem),
        },
        Column {
            name: "t".to_string(),
            data: ColumnData::F64(t),
        },
        Column {
            name: "swap_used".to_string(),
            data: ColumnData::F32(swap),
        },
    ];
    ColumnStore::from_columns(5, columns).unwrap()
}

const WIDTH: usize = 3;

fn golden_meta(method: &str) -> ArtifactMeta {
    ArtifactMeta {
        method: method.to_string(),
        created_at_unix: 1_760_000_000,
        train_smae: 87.25,
        agg: AggregationConfig {
            window_s: 30.0,
            min_points: 2,
            include_stddev: true,
        },
        columns: (0..WIDTH).map(|j| format!("feature_{j}")).collect(),
    }
}

fn training_data() -> (Matrix, Vec<f64>) {
    let n = 24;
    let mut next = unit_stream(7);
    let mut x = Matrix::zeros(n, WIDTH);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let mut target = 500.0;
        for j in 0..WIDTH {
            let v = next() * 20.0 - 10.0;
            x.row_mut(i)[j] = v;
            target += if v <= 0.0 { 3.0 * v } else { 8.0 - v } * (j + 1) as f64;
        }
        y.push(target + next());
    }
    (x, y)
}

/// One model per [`SavedModel`] kind.
fn golden_models() -> Vec<(&'static str, SavedModel)> {
    let (x, y) = training_data();
    let rep = RepTree::new(RepTreeParams {
        min_instances: 4,
        prune: false,
        ..RepTreeParams::default()
    });
    let m5 = M5Prime::new(M5Params {
        min_instances: 4,
        ..M5Params::default()
    });
    let svr = SvrRegressor::new(SvrParams {
        kernel: Kernel::Rbf { gamma: 0.1 },
        ..SvrParams::default()
    });
    vec![
        (
            "linear",
            SavedModel::Linear(LinearModel {
                intercept: 1234.5,
                coefficients: vec![-2.0, 0.25, -0.0],
            }),
        ),
        (
            "rep_tree",
            SavedModel::RepTree(rep.fit_tree(&x, &y).unwrap()),
        ),
        ("m5p", SavedModel::M5(m5.fit_m5(&x, &y).unwrap())),
        ("svr", SavedModel::Svr(svr.fit_svr(&x, &y).unwrap())),
        (
            "ls_svm",
            SavedModel::LsSvm(
                LsSvmRegressor::new(Kernel::Rbf { gamma: 0.2 }, 10.0)
                    .fit_lssvm(&x, &y)
                    .unwrap(),
            ),
        ),
    ]
}

/// `(fixture, image length, zlib.crc32 of the image)`, recorded from
/// the images the byte-by-byte CRC build wrote.
const PINS: &[(&str, usize, u32)] = &[
    ("store.f2pc", 423, 0x3d80_5192),
    ("linear.f2pm", 207, 0xddd8_4f89),
    ("rep_tree.f2pm", 702, 0x2a02_811f),
    ("m5p.f2pm", 1481, 0xe517_08e3),
    ("svr.f2pm", 853, 0x35a2_1773),
    ("ls_svm.f2pm", 1048, 0xa429_b7a8),
];

fn golden_images() -> Vec<(String, Vec<u8>)> {
    let mut out = vec![("store.f2pc".to_string(), encode_columns(&golden_store()))];
    for (kind, model) in golden_models() {
        out.push((format!("{kind}.f2pm"), encode(&golden_meta(kind), &model)));
    }
    out
}

#[test]
fn images_are_byte_identical_to_the_pinned_format() {
    let images = golden_images();
    assert_eq!(images.len(), PINS.len());
    for ((name, bytes), &(pin_name, pin_len, pin_crc)) in images.iter().zip(PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(bytes.len(), pin_len, "{name}: image length changed");
        assert_eq!(crc32(bytes), pin_crc, "{name}: image bytes changed");
    }
}

#[test]
fn pinned_images_decode_and_reencode_to_the_same_bytes() {
    for (name, bytes) in golden_images() {
        let again = if name.ends_with(".f2pc") {
            encode_columns(&decode_columns(&bytes).unwrap())
        } else {
            let (meta, model) = decode(&bytes).unwrap();
            encode(&meta, &model)
        };
        assert!(
            again == bytes,
            "{name}: decode -> encode is not the identity"
        );
    }
}
