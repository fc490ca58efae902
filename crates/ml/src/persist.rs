//! Model persistence: a plain-text, line-oriented format for every fitted
//! model type, so a model trained on one machine (or in one process) can
//! drive online prediction in another — the deployment split the paper's
//! architecture implies (train at the FMS, predict near the guest).
//!
//! The format is versioned and deliberately human-inspectable:
//!
//! ```text
//! f2pm-model 1
//! linear
//! width 2
//! intercept 7
//! coefficients 2 -2 0.5
//! end
//! ```
//!
//! Floats are serialized with [`f64::to_string`]/Rust's shortest-roundtrip
//! formatter, so save → load → predict is bit-exact.

use crate::batch::KernelExpansion;
use crate::kernel::Kernel;
use crate::linreg::LinearModel;
use crate::lssvm::LsSvmModel;
use crate::m5p::{M5Model, Node as M5Node};
use crate::regressor::Model;
use crate::reptree::{Node as RepNode, RepTreeModel};
use crate::svr::SvrModel;
use f2pm_linalg::{ColumnStats, Matrix, Standardizer};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Format version written in the header.
pub const FORMAT_VERSION: u32 = 1;

/// The savable model types.
///
/// ```
/// use f2pm_linalg::Matrix;
/// use f2pm_ml::persist;
/// use f2pm_ml::SavedModel;
///
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
/// let y = [5.0, 7.0, 9.0];
/// let model = f2pm_ml::linreg::LinearModel::fit(&x, &y).unwrap();
/// let text = persist::to_string(&SavedModel::Linear(model));
/// let loaded = persist::from_str(&text).unwrap();
/// use f2pm_ml::Model as _;
/// assert!((loaded.as_model().predict_row(&[3.0]) - 11.0).abs() < 1e-9);
/// ```
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

    /// Type tag written to the file.
    pub fn kind(&self) -> &'static str {
        match self {
            SavedModel::Linear(_) => "linear",
            SavedModel::RepTree(_) => "rep_tree",
            SavedModel::M5(_) => "m5p",
            SavedModel::Svr(_) => "svr",
            SavedModel::LsSvm(_) => "ls_svm",
        }
    }
}

/// Serialize a model to the text format.
pub fn to_string(model: &SavedModel) -> String {
    let mut s = String::new();
    writeln!(s, "f2pm-model {FORMAT_VERSION}").unwrap();
    writeln!(s, "{}", model.kind()).unwrap();
    match model {
        SavedModel::Linear(m) => write_linear(&mut s, m),
        SavedModel::RepTree(m) => {
            writeln!(s, "width {}", m.width).unwrap();
            writeln!(s, "root {}", m.root).unwrap();
            writeln!(s, "nodes {}", m.nodes.len()).unwrap();
            for node in &m.nodes {
                match node {
                    RepNode::Leaf { value } => writeln!(s, "leaf {value}").unwrap(),
                    RepNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        mean,
                    } => writeln!(s, "split {feature} {threshold} {left} {right} {mean}").unwrap(),
                }
            }
        }
        SavedModel::M5(m) => {
            writeln!(s, "width {}", m.width).unwrap();
            writeln!(s, "root {}", m.root).unwrap();
            writeln!(s, "smoothing {}", m.smoothing_k).unwrap();
            writeln!(s, "nodes {}", m.nodes.len()).unwrap();
            for node in &m.nodes {
                match node {
                    M5Node::Leaf { model, n } => {
                        write!(s, "leaf {n} {}", model.intercept).unwrap();
                        for c in &model.coefficients {
                            write!(s, " {c}").unwrap();
                        }
                        writeln!(s).unwrap();
                    }
                    M5Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        model,
                        n,
                    } => {
                        write!(
                            s,
                            "split {feature} {threshold} {left} {right} {n} {}",
                            model.intercept
                        )
                        .unwrap();
                        for c in &model.coefficients {
                            write!(s, " {c}").unwrap();
                        }
                        writeln!(s).unwrap();
                    }
                }
            }
        }
        SavedModel::Svr(m) => write_kernel_model(&mut s, &m.0, "beta"),
        SavedModel::LsSvm(m) => write_kernel_model(&mut s, &m.0, "alpha"),
    }
    s.push_str("end\n");
    s
}

/// Save a model to a file.
pub fn save(model: &SavedModel, path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, to_string(model))
}

/// Load a model from a file.
pub fn load(path: impl AsRef<Path>) -> io::Result<SavedModel> {
    from_str(&std::fs::read_to_string(path)?)
}

fn write_linear(s: &mut String, m: &LinearModel) {
    writeln!(s, "width {}", m.coefficients.len()).unwrap();
    writeln!(s, "intercept {}", m.intercept).unwrap();
    write_vec(s, "coefficients", &m.coefficients);
}

fn write_kernel_model(s: &mut String, m: &KernelExpansion, coeff_label: &str) {
    writeln!(s, "width {}", m.width()).unwrap();
    match m.kernel {
        Kernel::Linear => writeln!(s, "kernel linear").unwrap(),
        Kernel::Rbf { gamma } => writeln!(s, "kernel rbf {gamma}").unwrap(),
    }
    write_vec(s, "means", &m.standardizer.stats().mean);
    write_vec(s, "stds", &m.standardizer.stats().std);
    writeln!(s, "bias {}", m.bias).unwrap();
    write_vec(s, coeff_label, &m.coeffs);
    write_matrix(s, "support", &m.support);
}

fn write_vec(s: &mut String, label: &str, v: &[f64]) {
    write!(s, "{label} {}", v.len()).unwrap();
    for x in v {
        write!(s, " {x}").unwrap();
    }
    writeln!(s).unwrap();
}

fn write_matrix(s: &mut String, label: &str, m: &Matrix) {
    writeln!(s, "{label} {} {}", m.rows(), m.cols()).unwrap();
    for i in 0..m.rows() {
        let mut first = true;
        for v in m.row(i) {
            if !first {
                s.push(' ');
            }
            write!(s, "{v}").unwrap();
            first = false;
        }
        s.push('\n');
    }
}

/// Parse the text format.
pub fn from_str(text: &str) -> io::Result<SavedModel> {
    let mut lines = Reader {
        lines: text.lines(),
        at: 0,
    };
    let header = lines.next_line()?;
    let mut it = header.split_whitespace();
    if it.next() != Some("f2pm-model") {
        return Err(bad(0, "missing f2pm-model header"));
    }
    let version: u32 = it
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad(0, "bad version"))?;
    if version != FORMAT_VERSION {
        return Err(bad(0, &format!("unsupported version {version}")));
    }
    let kind = lines.next_line()?.trim().to_string();
    let model = match kind.as_str() {
        "linear" => SavedModel::Linear(read_linear(&mut lines)?),
        "rep_tree" => SavedModel::RepTree(read_reptree(&mut lines)?),
        "m5p" => SavedModel::M5(read_m5(&mut lines)?),
        "svr" => SavedModel::Svr(SvrModel(read_kernel_model(&mut lines, "beta")?)),
        "ls_svm" => SavedModel::LsSvm(LsSvmModel(read_kernel_model(&mut lines, "alpha")?)),
        other => return Err(bad(lines.at, &format!("unknown model kind {other:?}"))),
    };
    let terminator = lines.next_line()?;
    if terminator.trim() != "end" {
        return Err(bad(lines.at, "missing end terminator"));
    }
    Ok(model)
}

struct Reader<'a> {
    lines: std::str::Lines<'a>,
    at: usize,
}

impl<'a> Reader<'a> {
    fn next_line(&mut self) -> io::Result<&'a str> {
        self.at += 1;
        self.lines
            .next()
            .ok_or_else(|| bad(self.at, "unexpected end of file"))
    }

    /// Read `label <payload>` and return the payload tokens.
    fn labeled(&mut self, label: &str) -> io::Result<Vec<&'a str>> {
        let line = self.next_line()?;
        let mut it = line.split_whitespace();
        if it.next() != Some(label) {
            return Err(bad(
                self.at,
                &format!("expected {label:?} line, got {line:?}"),
            ));
        }
        Ok(it.collect())
    }

    fn labeled_f64(&mut self, label: &str) -> io::Result<f64> {
        let toks = self.labeled(label)?;
        toks.first()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(self.at, &format!("bad float in {label}")))
    }

    fn labeled_usize(&mut self, label: &str) -> io::Result<usize> {
        let toks = self.labeled(label)?;
        toks.first()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(self.at, &format!("bad integer in {label}")))
    }

    /// Read `label <len> v0 v1 ...`.
    fn labeled_vec(&mut self, label: &str) -> io::Result<Vec<f64>> {
        let toks = self.labeled(label)?;
        let len: usize = toks
            .first()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(self.at, &format!("bad length in {label}")))?;
        if toks.len() != len + 1 {
            return Err(bad(self.at, &format!("{label}: expected {len} values")));
        }
        toks[1..]
            .iter()
            .map(|t| {
                t.parse()
                    .map_err(|_| bad(self.at, &format!("bad float in {label}")))
            })
            .collect()
    }
}

fn bad(line: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("model file line {}: {msg}", line),
    )
}

fn read_linear(r: &mut Reader) -> io::Result<LinearModel> {
    let width = r.labeled_usize("width")?;
    let intercept = r.labeled_f64("intercept")?;
    let coefficients = r.labeled_vec("coefficients")?;
    if coefficients.len() != width {
        return Err(bad(r.at, "coefficient count != width"));
    }
    Ok(LinearModel {
        intercept,
        coefficients,
    })
}

fn read_reptree(r: &mut Reader) -> io::Result<RepTreeModel> {
    let width = r.labeled_usize("width")?;
    let root = r.labeled_usize("root")?;
    let count = r.labeled_usize("nodes")?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let line = r.next_line()?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.first().copied() {
            Some("leaf") if toks.len() == 2 => nodes.push(RepNode::Leaf {
                value: parse_f64(r.at, toks[1])?,
            }),
            Some("split") if toks.len() == 6 => nodes.push(RepNode::Split {
                feature: parse_usize(r.at, toks[1])?,
                threshold: parse_f64(r.at, toks[2])?,
                left: parse_usize(r.at, toks[3])?,
                right: parse_usize(r.at, toks[4])?,
                mean: parse_f64(r.at, toks[5])?,
            }),
            _ => return Err(bad(r.at, &format!("bad tree node line {line:?}"))),
        }
    }
    validate_tree_indices(
        r.at,
        root,
        count,
        nodes.iter().map(|n| match n {
            RepNode::Leaf { .. } => None,
            RepNode::Split { left, right, .. } => Some((*left, *right)),
        }),
    )?;
    Ok(RepTreeModel { nodes, root, width })
}

fn read_m5(r: &mut Reader) -> io::Result<M5Model> {
    let width = r.labeled_usize("width")?;
    let root = r.labeled_usize("root")?;
    let smoothing_k = r.labeled_f64("smoothing")?;
    let count = r.labeled_usize("nodes")?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let line = r.next_line()?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.first().copied() {
            Some("leaf") if toks.len() == 3 + width => {
                let n = parse_usize(r.at, toks[1])?;
                let intercept = parse_f64(r.at, toks[2])?;
                let coefficients = parse_floats(r.at, &toks[3..])?;
                nodes.push(M5Node::Leaf {
                    model: LinearModel {
                        intercept,
                        coefficients,
                    },
                    n,
                });
            }
            Some("split") if toks.len() == 7 + width => {
                let feature = parse_usize(r.at, toks[1])?;
                let threshold = parse_f64(r.at, toks[2])?;
                let left = parse_usize(r.at, toks[3])?;
                let right = parse_usize(r.at, toks[4])?;
                let n = parse_usize(r.at, toks[5])?;
                let intercept = parse_f64(r.at, toks[6])?;
                let coefficients = parse_floats(r.at, &toks[7..])?;
                nodes.push(M5Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    model: LinearModel {
                        intercept,
                        coefficients,
                    },
                    n,
                });
            }
            _ => return Err(bad(r.at, &format!("bad m5 node line {line:?}"))),
        }
    }
    validate_tree_indices(
        r.at,
        root,
        count,
        nodes.iter().map(|n| match n {
            M5Node::Leaf { .. } => None,
            M5Node::Split { left, right, .. } => Some((*left, *right)),
        }),
    )?;
    Ok(M5Model {
        nodes,
        root,
        width,
        smoothing_k,
    })
}

fn read_kernel_model(r: &mut Reader, coeff_label: &str) -> io::Result<KernelExpansion> {
    let width = r.labeled_usize("width")?;
    let ktoks = r.labeled("kernel")?;
    let kernel = match ktoks.as_slice() {
        ["linear"] => Kernel::Linear,
        ["rbf", g] => Kernel::Rbf {
            gamma: parse_f64(r.at, g)?,
        },
        _ => return Err(bad(r.at, "bad kernel line")),
    };
    let mean = r.labeled_vec("means")?;
    let std = r.labeled_vec("stds")?;
    if mean.len() != width || std.len() != width {
        return Err(bad(r.at, "standardizer width mismatch"));
    }
    let standardizer = Standardizer::from_stats(ColumnStats { mean, std });
    let bias = r.labeled_f64("bias")?;
    let coeff = r.labeled_vec(coeff_label)?;
    let mtoks = r.labeled("support")?;
    let rows: usize = mtoks
        .first()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad(r.at, "bad support rows"))?;
    let cols: usize = mtoks
        .get(1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad(r.at, "bad support cols"))?;
    if cols != width {
        return Err(bad(r.at, "support width mismatch"));
    }
    if coeff.len() != rows {
        return Err(bad(r.at, "coefficient count != support rows"));
    }
    let mut support = Matrix::zeros(rows, cols);
    for i in 0..rows {
        let line = r.next_line()?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() != cols {
            return Err(bad(r.at, "support row width mismatch"));
        }
        for (j, t) in toks.iter().enumerate() {
            support[(i, j)] = parse_f64(r.at, t)?;
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

fn parse_f64(line: usize, t: &str) -> io::Result<f64> {
    t.parse()
        .map_err(|_| bad(line, &format!("bad float {t:?}")))
}

fn parse_usize(line: usize, t: &str) -> io::Result<usize> {
    t.parse()
        .map_err(|_| bad(line, &format!("bad integer {t:?}")))
}

fn parse_floats(line: usize, toks: &[&str]) -> io::Result<Vec<f64>> {
    toks.iter().map(|t| parse_f64(line, t)).collect()
}

/// Reject out-of-range child indices and an out-of-range root (they would
/// panic at prediction time).
fn validate_tree_indices(
    line: usize,
    root: usize,
    count: usize,
    children: impl Iterator<Item = Option<(usize, usize)>>,
) -> io::Result<()> {
    if root >= count {
        return Err(bad(line, "root index out of range"));
    }
    for c in children.flatten() {
        if c.0 >= count || c.1 >= count {
            return Err(bad(line, "child index out of range"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::{
        LinearRegression, LsSvmRegressor, M5Params, M5Prime, Regressor, RepTree, RepTreeParams,
        SvrParams, SvrRegressor,
    };

    fn training_data(n: usize) -> (Matrix, Vec<f64>) {
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for i in 0..n {
            let a = i as f64 / n as f64 * 10.0;
            let b = ((i * 7) % 13) as f64;
            x.row_mut(i).copy_from_slice(&[a, b]);
            y.push(if a <= 5.0 { 2.0 * a + b } else { 30.0 - a });
        }
        (x, y)
    }

    fn assert_roundtrip(model: SavedModel, x: &Matrix) {
        let text = to_string(&model);
        let loaded = from_str(&text).expect("parse");
        assert_eq!(loaded.kind(), model.kind());
        for i in 0..x.rows() {
            let a = model.as_model().predict_row(x.row(i));
            let b = loaded.as_model().predict_row(x.row(i));
            assert_eq!(a, b, "prediction differs at row {i} for {}", model.kind());
        }
    }

    #[test]
    fn linear_roundtrip_is_bit_exact() {
        let (x, y) = training_data(60);
        let m = crate::linreg::LinearModel::fit(&x, &y).unwrap();
        assert_roundtrip(SavedModel::Linear(m), &x);
    }

    #[test]
    fn reptree_roundtrip_is_bit_exact() {
        let (x, y) = training_data(200);
        let m = RepTree::new(RepTreeParams::default())
            .fit_tree(&x, &y)
            .unwrap();
        assert!(m.leaf_count() > 1, "tree should actually split");
        assert_roundtrip(SavedModel::RepTree(m), &x);
    }

    #[test]
    fn m5_roundtrip_is_bit_exact() {
        let (x, y) = training_data(200);
        let m = M5Prime::new(M5Params {
            smoothing_k: 15.0, // exercise the smoothing fields too
            min_instances: 20,
            ..M5Params::default()
        })
        .fit_m5(&x, &y)
        .unwrap();
        assert_roundtrip(SavedModel::M5(m), &x);
    }

    #[test]
    fn svr_roundtrip_is_bit_exact() {
        let (x, y) = training_data(80);
        let m = SvrRegressor::new(SvrParams {
            kernel: Kernel::Rbf { gamma: 0.7 },
            ..SvrParams::default()
        })
        .fit_svr(&x, &y)
        .unwrap();
        assert_roundtrip(SavedModel::Svr(m), &x);
    }

    #[test]
    fn lssvm_roundtrip_is_bit_exact() {
        let (x, y) = training_data(70);
        let m = LsSvmRegressor::new(Kernel::Linear, 5.0)
            .fit_lssvm(&x, &y)
            .unwrap();
        assert_roundtrip(SavedModel::LsSvm(m), &x);
    }

    #[test]
    fn file_roundtrip() {
        let (x, y) = training_data(40);
        let m = crate::linreg::LinearModel::fit(&x, &y).unwrap();
        let path = std::env::temp_dir().join(format!("f2pm_model_{}.txt", std::process::id()));
        save(&SavedModel::Linear(m), &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.kind(), "linear");
        assert!(loaded.as_model().predict_row(&[1.0, 2.0]).is_finite());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn linear_regression_regressor_roundtrips_via_box() {
        // The usual flow: fit via the Regressor trait, save the concrete
        // model obtained from LinearModel::fit.
        let (x, y) = training_data(30);
        let boxed = LinearRegression::new().fit(&x, &y).unwrap();
        let concrete = crate::linreg::LinearModel::fit(&x, &y).unwrap();
        let text = to_string(&SavedModel::Linear(concrete));
        let loaded = from_str(&text).unwrap();
        for i in 0..x.rows() {
            assert!(
                (boxed.predict_row(x.row(i)) - loaded.as_model().predict_row(x.row(i))).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn concrete_fit_agrees_with_boxed_fit() {
        // The concrete fit paths (used for persistence) must produce the
        // same predictions as the Regressor-trait path.
        let (x, y) = training_data(150);
        let reg = M5Prime::new(M5Params::default());
        let boxed = reg.fit(&x, &y).unwrap();
        let concrete = reg.fit_m5(&x, &y).unwrap();
        for i in 0..x.rows() {
            assert_eq!(boxed.predict_row(x.row(i)), concrete.predict_row(x.row(i)));
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(from_str("").is_err());
        assert!(from_str("wrong header\nlinear\n").is_err());
        assert!(from_str("f2pm-model 99\nlinear\n").is_err());
        assert!(from_str("f2pm-model 1\nbogus_kind\nend\n").is_err());
        // Linear with inconsistent width.
        let bad_linear = "f2pm-model 1\nlinear\nwidth 3\nintercept 1\ncoefficients 2 1 2\nend\n";
        assert!(from_str(bad_linear).is_err());
        // Tree with out-of-range child.
        let bad_tree =
            "f2pm-model 1\nrep_tree\nwidth 1\nroot 0\nnodes 1\nsplit 0 1.0 5 6 0.0\nend\n";
        assert!(from_str(bad_tree).is_err());
        // Missing end.
        let no_end = "f2pm-model 1\nlinear\nwidth 1\nintercept 1\ncoefficients 1 2\n";
        assert!(from_str(no_end).is_err());
    }
}
