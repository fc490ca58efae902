//! The persistable model set, [`SavedModel`], and its binary payload
//! codec — the model-data half of the `f2pm-registry` artifact format,
//! the one format every saved model travels in.
//!
//! Every f64 travels as its IEEE bit pattern (little-endian `to_bits`),
//! so save → load → predict is bit-exact by construction, including
//! negative zero, subnormals and infinities. The container (magic,
//! version, metadata, CRCs) lives in `f2pm-registry`; this module only
//! encodes and decodes the payload bytes between the length prefixes.
//!
//! The decoder is written to be safe on *arbitrary* bytes: every length
//! is bounds-checked against the remaining input before any allocation,
//! tree node indices are validated against the node count, and all
//! failures surface as `io::ErrorKind::InvalidData`/`UnexpectedEof`
//! errors — never a panic. (In the registry the payload CRC is verified
//! first, so a decode failure there means a format bug, not corruption —
//! but the guarantee is unconditional.)
//!
//! ```
//! use f2pm_linalg::Matrix;
//! use f2pm_ml::{persist_bin, Model as _, SavedModel};
//!
//! let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
//! let model = f2pm_ml::linreg::LinearModel::fit(&x, &[5.0, 7.0, 9.0]).unwrap();
//! let saved = SavedModel::Linear(model);
//! let mut bytes = Vec::new();
//! persist_bin::encode_payload(&saved, &mut bytes);
//! let loaded = persist_bin::decode_payload(persist_bin::kind_tag(&saved), &bytes).unwrap();
//! assert!((loaded.as_model().predict_row(&[3.0]) - 11.0).abs() < 1e-9);
//! ```

use crate::batch::KernelExpansion;
use crate::kernel::Kernel;
use crate::linreg::LinearModel;
use crate::lssvm::LsSvmModel;
use crate::m5p::{M5Model, Node as M5Node};
use crate::regressor::Model;
use crate::reptree::{Node as RepNode, RepTreeModel};
use crate::svr::SvrModel;
use f2pm_linalg::{ColumnStats, Matrix, Standardizer};
use std::io;

/// The savable model types.
#[derive(Debug, Clone)]
pub enum SavedModel {
    /// OLS plane.
    Linear(LinearModel),
    /// REP-Tree.
    RepTree(RepTreeModel),
    /// M5P model tree.
    M5(M5Model),
    /// ε-SVR.
    Svr(SvrModel),
    /// LS-SVM.
    LsSvm(LsSvmModel),
}

impl SavedModel {
    /// Borrow as a prediction-capable model.
    pub fn as_model(&self) -> &dyn Model {
        match self {
            SavedModel::Linear(m) => m,
            SavedModel::RepTree(m) => m,
            SavedModel::M5(m) => m,
            SavedModel::Svr(m) => m,
            SavedModel::LsSvm(m) => m,
        }
    }

    /// Convert into a boxed model.
    pub fn into_model(self) -> Box<dyn Model> {
        match self {
            SavedModel::Linear(m) => Box::new(m),
            SavedModel::RepTree(m) => Box::new(m),
            SavedModel::M5(m) => Box::new(m),
            SavedModel::Svr(m) => Box::new(m),
            SavedModel::LsSvm(m) => Box::new(m),
        }
    }

    /// Model kind name (`"linear"`, `"rep_tree"`, ...): the
    /// [`kind_name`] of its [`kind_tag`].
    pub fn kind(&self) -> &'static str {
        kind_name(kind_tag(self)).expect("every model kind has a tag")
    }
}

/// Stable one-byte model-kind tags written into the artifact header.
///
/// Tag values are part of the on-disk format: never renumber, only append.
pub const TAG_LINEAR: u8 = 1;
/// REP-Tree kind tag.
pub const TAG_REP_TREE: u8 = 2;
/// M5P model-tree kind tag.
pub const TAG_M5P: u8 = 3;
/// ε-SVR kind tag.
pub const TAG_SVR: u8 = 4;
/// LS-SVM kind tag.
pub const TAG_LS_SVM: u8 = 5;

/// The kind tag for a model (see the `TAG_*` constants).
pub fn kind_tag(model: &SavedModel) -> u8 {
    match model {
        SavedModel::Linear(_) => TAG_LINEAR,
        SavedModel::RepTree(_) => TAG_REP_TREE,
        SavedModel::M5(_) => TAG_M5P,
        SavedModel::Svr(_) => TAG_SVR,
        SavedModel::LsSvm(_) => TAG_LS_SVM,
    }
}

/// The kind name for a tag (`"linear"`, `"rep_tree"`, ...), or `None`
/// for an unknown tag.
pub fn kind_name(tag: u8) -> Option<&'static str> {
    Some(match tag {
        TAG_LINEAR => "linear",
        TAG_REP_TREE => "rep_tree",
        TAG_M5P => "m5p",
        TAG_SVR => "svr",
        TAG_LS_SVM => "ls_svm",
        _ => return None,
    })
}

/// Append the binary payload encoding of `model` to `out`.
pub fn encode_payload(model: &SavedModel, out: &mut Vec<u8>) {
    match model {
        SavedModel::Linear(m) => {
            put_f64(out, m.intercept);
            put_vec(out, &m.coefficients);
        }
        SavedModel::RepTree(m) => {
            put_u64(out, m.width as u64);
            put_u64(out, m.root as u64);
            put_u64(out, m.nodes.len() as u64);
            for node in &m.nodes {
                match node {
                    RepNode::Leaf { value } => {
                        out.push(0);
                        put_f64(out, *value);
                    }
                    RepNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        mean,
                    } => {
                        out.push(1);
                        put_u64(out, *feature as u64);
                        put_f64(out, *threshold);
                        put_u64(out, *left as u64);
                        put_u64(out, *right as u64);
                        put_f64(out, *mean);
                    }
                }
            }
        }
        SavedModel::M5(m) => {
            put_u64(out, m.width as u64);
            put_u64(out, m.root as u64);
            put_f64(out, m.smoothing_k);
            put_u64(out, m.nodes.len() as u64);
            for node in &m.nodes {
                match node {
                    M5Node::Leaf { model, n } => {
                        out.push(0);
                        put_u64(out, *n as u64);
                        put_f64(out, model.intercept);
                        put_vec(out, &model.coefficients);
                    }
                    M5Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        model,
                        n,
                    } => {
                        out.push(1);
                        put_u64(out, *feature as u64);
                        put_f64(out, *threshold);
                        put_u64(out, *left as u64);
                        put_u64(out, *right as u64);
                        put_u64(out, *n as u64);
                        put_f64(out, model.intercept);
                        put_vec(out, &model.coefficients);
                    }
                }
            }
        }
        SavedModel::Svr(m) => encode_kernel_model(out, &m.0),
        SavedModel::LsSvm(m) => encode_kernel_model(out, &m.0),
    }
}

/// Decode a payload previously produced by [`encode_payload`] for the
/// model kind `tag`. Safe on arbitrary input: returns `InvalidData` /
/// `UnexpectedEof` errors instead of panicking or over-allocating.
pub fn decode_payload(tag: u8, bytes: &[u8]) -> io::Result<SavedModel> {
    let mut c = Cursor { bytes, at: 0 };
    let model = match tag {
        TAG_LINEAR => {
            let intercept = c.f64()?;
            let coefficients = c.vec_f64()?;
            SavedModel::Linear(LinearModel {
                intercept,
                coefficients,
            })
        }
        TAG_REP_TREE => {
            let width = c.len()?;
            let root = c.len()?;
            let count = c.counted(9)?; // smallest node: 1-byte tag + 8-byte leaf value
            let mut nodes = Vec::with_capacity(count);
            for _ in 0..count {
                nodes.push(match c.u8()? {
                    0 => RepNode::Leaf { value: c.f64()? },
                    1 => RepNode::Split {
                        feature: c.feature(width)?,
                        threshold: c.f64()?,
                        left: c.len()?,
                        right: c.len()?,
                        mean: c.f64()?,
                    },
                    t => return Err(invalid(format!("unknown rep_tree node tag {t}"))),
                });
            }
            validate_tree(root, count, |i| match &nodes[i] {
                RepNode::Leaf { .. } => None,
                RepNode::Split { left, right, .. } => Some((*left, *right)),
            })?;
            SavedModel::RepTree(RepTreeModel { nodes, root, width })
        }
        TAG_M5P => {
            let width = c.len()?;
            let root = c.len()?;
            let smoothing_k = c.f64()?;
            let count = c.counted(9)?;
            let mut nodes = Vec::with_capacity(count);
            for _ in 0..count {
                nodes.push(match c.u8()? {
                    0 => {
                        let n = c.len()?;
                        let model = c.linear(width)?;
                        M5Node::Leaf { model, n }
                    }
                    1 => {
                        let feature = c.feature(width)?;
                        let threshold = c.f64()?;
                        let left = c.len()?;
                        let right = c.len()?;
                        let n = c.len()?;
                        let model = c.linear(width)?;
                        M5Node::Split {
                            feature,
                            threshold,
                            left,
                            right,
                            model,
                            n,
                        }
                    }
                    t => return Err(invalid(format!("unknown m5p node tag {t}"))),
                });
            }
            validate_tree(root, count, |i| match &nodes[i] {
                M5Node::Leaf { .. } => None,
                M5Node::Split { left, right, .. } => Some((*left, *right)),
            })?;
            SavedModel::M5(M5Model {
                nodes,
                root,
                width,
                smoothing_k,
            })
        }
        TAG_SVR => SavedModel::Svr(SvrModel(c.kernel_model()?)),
        TAG_LS_SVM => SavedModel::LsSvm(LsSvmModel(c.kernel_model()?)),
        t => return Err(invalid(format!("unknown model kind tag {t}"))),
    };
    if c.at != bytes.len() {
        return Err(invalid(format!(
            "{} trailing payload bytes after model data",
            bytes.len() - c.at
        )));
    }
    Ok(model)
}

fn encode_kernel_model(out: &mut Vec<u8>, m: &KernelExpansion) {
    put_u64(out, m.width() as u64);
    match m.kernel {
        Kernel::Linear => out.push(0),
        Kernel::Rbf { gamma } => {
            out.push(1);
            put_f64(out, gamma);
        }
    }
    put_vec(out, &m.standardizer.stats().mean);
    put_vec(out, &m.standardizer.stats().std);
    put_f64(out, m.bias);
    put_vec(out, &m.coeffs);
    let support = &m.support;
    put_u64(out, support.rows() as u64);
    put_u64(out, support.cols() as u64);
    for i in 0..support.rows() {
        for &v in support.row(i) {
            put_f64(out, v);
        }
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        put_f64(out, x);
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("model payload: {msg}"))
}

fn truncated() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "model payload: truncated".to_string(),
    )
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.at.checked_add(n).ok_or_else(truncated)?;
        if end > self.bytes.len() {
            return Err(truncated());
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    /// A u64 that must fit in usize (lengths, indices).
    fn len(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| invalid("length exceeds usize".to_string()))
    }

    /// An element count whose elements occupy at least `min_bytes` each:
    /// bounds it against the remaining input so corrupt counts can never
    /// trigger a huge allocation.
    fn counted(&mut self, min_bytes: usize) -> io::Result<usize> {
        let n = self.len()?;
        if n > (self.bytes.len() - self.at) / min_bytes.max(1) + 1 {
            return Err(truncated());
        }
        Ok(n)
    }

    /// A feature index, validated against the model width (an
    /// out-of-range feature would panic at prediction time).
    fn feature(&mut self, width: usize) -> io::Result<usize> {
        let f = self.len()?;
        if f >= width {
            return Err(invalid(format!("feature index {f} >= width {width}")));
        }
        Ok(f)
    }

    fn vec_f64(&mut self) -> io::Result<Vec<f64>> {
        let n = self.counted(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// A leaf/split linear model with exactly `width` coefficients.
    fn linear(&mut self, width: usize) -> io::Result<LinearModel> {
        let intercept = self.f64()?;
        let coefficients = self.vec_f64()?;
        if coefficients.len() != width {
            return Err(invalid(format!(
                "node model has {} coefficients, width is {width}",
                coefficients.len()
            )));
        }
        Ok(LinearModel {
            intercept,
            coefficients,
        })
    }

    #[allow(clippy::type_complexity)]
    fn kernel_model(&mut self) -> io::Result<KernelExpansion> {
        let width = self.len()?;
        let kernel = match self.u8()? {
            0 => Kernel::Linear,
            1 => Kernel::Rbf { gamma: self.f64()? },
            t => return Err(invalid(format!("unknown kernel tag {t}"))),
        };
        let mean = self.vec_f64()?;
        let std = self.vec_f64()?;
        if mean.len() != width || std.len() != width {
            return Err(invalid("standardizer width mismatch".to_string()));
        }
        let standardizer = Standardizer::from_stats(ColumnStats { mean, std });
        let bias = self.f64()?;
        let coeff = self.vec_f64()?;
        let rows = self.len()?;
        let cols = self.len()?;
        if cols != width {
            return Err(invalid(format!("support width {cols} != width {width}")));
        }
        if coeff.len() != rows {
            return Err(invalid(format!(
                "{} coefficients for {rows} support rows",
                coeff.len()
            )));
        }
        let cells = rows
            .checked_mul(cols)
            .ok_or_else(|| invalid("support size overflow".to_string()))?;
        if cells > (self.bytes.len() - self.at) / 8 {
            return Err(truncated());
        }
        let mut support = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                support[(i, j)] = self.f64()?;
            }
        }
        Ok(KernelExpansion::new(
            kernel,
            standardizer,
            support,
            coeff,
            bias,
        ))
    }
}

/// Reject out-of-range child indices and roots, exactly like the text
/// reader (they would panic at prediction time).
fn validate_tree(
    root: usize,
    count: usize,
    children: impl Fn(usize) -> Option<(usize, usize)>,
) -> io::Result<()> {
    if count == 0 {
        return Err(invalid("empty tree".to_string()));
    }
    if root >= count {
        return Err(invalid(format!("root {root} out of range ({count} nodes)")));
    }
    for i in 0..count {
        if let Some((l, r)) = children(i) {
            if l >= count || r >= count {
                return Err(invalid(format!("child index out of range at node {i}")));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(model: &SavedModel) -> SavedModel {
        let mut buf = Vec::new();
        encode_payload(model, &mut buf);
        decode_payload(kind_tag(model), &buf).expect("decode")
    }

    #[test]
    fn special_float_values_roundtrip_bit_exact() {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::MAX,
            1e-300,
            std::f64::consts::PI,
        ];
        let m = SavedModel::Linear(LinearModel {
            intercept: f64::NAN,
            coefficients: specials.to_vec(),
        });
        let SavedModel::Linear(loaded) = roundtrip(&m) else {
            panic!("kind changed");
        };
        assert!(loaded.intercept.is_nan());
        let SavedModel::Linear(orig) = m else {
            unreachable!()
        };
        for (a, b) in orig.coefficients.iter().zip(&loaded.coefficients) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn tags_are_stable_and_named() {
        for (tag, name) in [
            (TAG_LINEAR, "linear"),
            (TAG_REP_TREE, "rep_tree"),
            (TAG_M5P, "m5p"),
            (TAG_SVR, "svr"),
            (TAG_LS_SVM, "ls_svm"),
        ] {
            assert_eq!(kind_name(tag), Some(name));
        }
        assert_eq!(kind_name(0), None);
        assert_eq!(kind_name(99), None);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let m = SavedModel::Linear(LinearModel {
            intercept: 1.0,
            coefficients: vec![2.0],
        });
        let mut buf = Vec::new();
        encode_payload(&m, &mut buf);
        buf.push(0);
        assert!(decode_payload(TAG_LINEAR, &buf).is_err());
    }

    #[test]
    fn corrupt_tree_indices_rejected() {
        // A split pointing past the node list.
        let m = SavedModel::RepTree(RepTreeModel {
            nodes: vec![RepNode::Leaf { value: 1.0 }],
            root: 0,
            width: 2,
        });
        let mut buf = Vec::new();
        encode_payload(&m, &mut buf);
        // Corrupt the root index (bytes 8..16).
        buf[8] = 9;
        let err = decode_payload(TAG_REP_TREE, &buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
