//! The kernel DSL: a loop nest plus its array references, parsed from a
//! small line-oriented text grammar (in the style of the lab sweep
//! specs).
//!
//! ```text
//! # Classical matrix multiplication.
//! kernel = matmul
//! for i in 0..n
//! for j in 0..n
//! for k in 0..n
//! C[i,j] += A[i,k] * B[k,j]
//! ```
//!
//! Grammar, line by line (blank lines and `#` comments are ignored):
//!
//! * `kernel = NAME` — optional display name.
//! * `flops-per-iter = F` — flops counted per innermost iteration
//!   (default 1, matching the paper's `n³` convention for matmul).
//! * `bound = hbl | fft-pebbling` — `fft-pebbling` is the documented
//!   escape hatch for kernels whose index maps are not affine (FFT
//!   butterflies): the LP is skipped and the hand-derived pebbling
//!   bound from `psse-core` is used instead.
//! * `for IDX in 0..n` — one loop per line, outermost first. All loops
//!   share the symbolic extent `n` (the model's single size parameter).
//! * `LHS (+=|=) RHS` — the statement. Both sides are built from array
//!   references `Name[expr, expr, ...]` combined with `+`, `-`, `*`;
//!   each subscript is an affine expression in the loop indices
//!   (`i`, `i+k`, `2*i-j`, `i+1`). Constant offsets shift data without
//!   changing the projection, so they are accepted and dropped.
//!
//! Each distinct `(array, linear map)` pair becomes one HBL reference
//! `φ_j`; the same array read through two different maps (`P[i]` and
//! `P[j]` in the n-body kernel) contributes two references. Errors
//! carry 1-based line numbers.

use crate::error::HblError;
use crate::linalg::rank_i64;

/// A non-affine kernel routed around the HBL LP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecialBound {
    /// FFT butterflies: use the paper's pebbling bound (`psse-core`'s
    /// `FftTree` model) instead of the LP.
    FftPebbling,
}

/// One array reference `φ_j : Z^d → Z^k`, the linear part only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayRef {
    /// Array name as written.
    pub array: String,
    /// `k × d` integer coefficient rows, one per subscript.
    pub map: Vec<Vec<i64>>,
}

impl ArrayRef {
    /// Render as `A[i,k]` / `A[t+i]` over the given index names
    /// (constant offsets were dropped at parse time).
    pub fn render(&self, indices: &[String]) -> String {
        let subs: Vec<String> = self
            .map
            .iter()
            .map(|row| render_affine(row, indices))
            .collect();
        format!("{}[{}]", self.array, subs.join(","))
    }

    /// `rank(φ_j)` over the full space.
    pub fn rank(&self) -> Result<usize, HblError> {
        rank_i64(&self.map)
    }
}

/// Render an integer coefficient row over index names: `i`, `t+i`,
/// `2*i-j`, `0`.
pub fn render_affine(row: &[i64], indices: &[String]) -> String {
    let mut out = String::new();
    for (c, &coef) in row.iter().enumerate() {
        if coef == 0 {
            continue;
        }
        if coef > 0 && !out.is_empty() {
            out.push('+');
        }
        if coef == -1 {
            out.push('-');
        } else if coef != 1 {
            out.push_str(&format!("{coef}*"));
        }
        out.push_str(&indices[c]);
    }
    if out.is_empty() {
        out.push('0');
    }
    out
}

/// A parsed kernel: iteration space `[0, n)^d` plus array references.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Display name (`kernel = ...`, default `"kernel"`).
    pub name: String,
    /// Loop indices, outermost first; `d = indices.len()`.
    pub indices: Vec<String>,
    /// Deduplicated array references.
    pub refs: Vec<ArrayRef>,
    /// Flops counted per innermost iteration.
    pub flops_per_iter: f64,
    /// Escape hatch for non-affine kernels.
    pub special: Option<SpecialBound>,
}

/// Caps keeping the subspace lattice enumerable; far above every
/// shipped kernel (deepest is the 4-loop tensor contraction).
const MAX_DEPTH: usize = 6;
const MAX_REFS: usize = 8;

impl Kernel {
    /// Parse kernel text; errors carry 1-based line numbers.
    pub fn parse(text: &str) -> Result<Kernel, HblError> {
        let err = |line: usize, msg: String| HblError::Parse { line, msg };
        let mut name = String::from("kernel");
        let mut indices: Vec<String> = Vec::new();
        let mut refs: Vec<ArrayRef> = Vec::new();
        let mut flops_per_iter = 1.0;
        let mut special = None;
        let mut saw_statement = false;

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("for ") {
                if saw_statement {
                    return Err(err(lineno, "loops must precede the statement".into()));
                }
                let mut toks = rest.split_whitespace();
                let idx = toks.next().unwrap_or("");
                let kw = toks.next().unwrap_or("");
                let range = toks.next().unwrap_or("");
                if !is_ident(idx) || kw != "in" || toks.next().is_some() {
                    return Err(err(
                        lineno,
                        format!("expected `for IDX in 0..n`, got `{line}`"),
                    ));
                }
                if range != "0..n" {
                    return Err(err(
                        lineno,
                        format!(
                            "loop ranges must be `0..n` (all loops share the symbolic \
                             extent n), got `{range}`"
                        ),
                    ));
                }
                if indices.iter().any(|x| x == idx) {
                    return Err(err(lineno, format!("duplicate loop index `{idx}`")));
                }
                if indices.len() == MAX_DEPTH {
                    return Err(err(lineno, format!("at most {MAX_DEPTH} nested loops")));
                }
                indices.push(idx.to_string());
                continue;
            }
            // A statement has an array reference before its `=`;
            // everything else is a `key = value` directive.
            let eq = line.find('=');
            let bracket = line.find('[');
            let is_statement = matches!((bracket, eq), (Some(b), Some(e)) if b < e);
            if is_statement {
                parse_statement(line, lineno, &indices, &mut refs)?;
                saw_statement = true;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
            };
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(err(lineno, format!("`{key}` has no value")));
            }
            match key {
                "kernel" => name = value.to_string(),
                "flops-per-iter" => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| err(lineno, format!("bad number `{value}`")))?;
                    if !(v > 0.0 && v.is_finite()) {
                        return Err(err(lineno, "`flops-per-iter` must be positive".into()));
                    }
                    flops_per_iter = v;
                }
                "bound" => {
                    special = match value {
                        "hbl" => None,
                        "fft-pebbling" => Some(SpecialBound::FftPebbling),
                        other => {
                            return Err(err(
                                lineno,
                                format!("unknown bound `{other}` (hbl|fft-pebbling)"),
                            ))
                        }
                    };
                }
                other => return Err(err(lineno, format!("unknown key `{other}`"))),
            }
        }

        let kernel = Kernel {
            name,
            indices,
            refs,
            flops_per_iter,
            special,
        };
        kernel.validate()?;
        Ok(kernel)
    }

    /// Loop-nest depth `d`.
    pub fn depth(&self) -> usize {
        self.indices.len()
    }

    /// Whole-file checks, reported at line 0.
    fn validate(&self) -> Result<(), HblError> {
        let err = |msg: String| Err(HblError::Parse { line: 0, msg });
        if self.special.is_some() {
            return Ok(()); // loops/statement optional under an escape hatch
        }
        if self.indices.is_empty() {
            return err("kernel has no loops".into());
        }
        if self.refs.is_empty() {
            return err("kernel has no statement (no array references)".into());
        }
        if self.refs.len() > MAX_REFS {
            return err(format!("at most {MAX_REFS} distinct array references"));
        }
        Ok(())
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse `LHS (+=|=) RHS` into array references, appending to `refs`.
fn parse_statement(
    line: &str,
    lineno: usize,
    indices: &[String],
    refs: &mut Vec<ArrayRef>,
) -> Result<(), HblError> {
    let err = |msg: String| HblError::Parse { line: lineno, msg };
    if indices.is_empty() {
        return Err(err("statement before any `for` loop".into()));
    }
    let (lhs, rhs) = match line.split_once("+=") {
        Some((l, r)) => (l, r),
        None => line
            .split_once('=')
            .ok_or_else(|| err("statement needs `=` or `+=`".into()))?,
    };
    for side in [lhs, rhs] {
        for token in split_refs(side) {
            let token = token.trim();
            if token.is_empty() {
                return Err(err("empty term in statement".into()));
            }
            // Bare numeric literals (scalars) carry no data movement.
            if token.chars().all(|c| c.is_ascii_digit() || c == '.') {
                continue;
            }
            let array_ref = parse_ref(token, indices).map_err(&err)?;
            if !refs.contains(&array_ref) {
                refs.push(array_ref);
            }
        }
    }
    Ok(())
}

/// Split a statement side on `+`, `-`, `*` outside subscript brackets.
fn split_refs(side: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut depth = 0usize;
    for ch in side.chars() {
        match ch {
            '[' => {
                depth += 1;
                cur.push(ch);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            '+' | '-' | '*' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
                // The operator itself is dropped: only the references
                // matter for the bound.
            }
            _ => cur.push(ch),
        }
    }
    out.push(cur);
    out.retain(|t| !t.trim().is_empty());
    out
}

/// Parse one `Name[expr, expr, ...]` reference.
fn parse_ref(token: &str, indices: &[String]) -> Result<ArrayRef, String> {
    let Some((array, rest)) = token.split_once('[') else {
        return Err(format!(
            "expected an array reference `Name[...]`, got `{token}` \
             (scalars must be numeric literals)"
        ));
    };
    let array = array.trim();
    if !is_ident(array) {
        return Err(format!("bad array name `{array}`"));
    }
    let Some(subs) = rest.trim_end().strip_suffix(']') else {
        return Err(format!("unclosed `[` in `{token}`"));
    };
    let mut map = Vec::new();
    for sub in subs.split(',') {
        map.push(parse_affine(sub, indices)?);
    }
    if map.is_empty() {
        return Err(format!("`{array}` has no subscripts"));
    }
    Ok(ArrayRef {
        array: array.to_string(),
        map,
    })
}

/// Parse an affine expression over loop indices into its coefficient
/// row; the constant part is dropped (it does not affect the bound).
fn parse_affine(expr: &str, indices: &[String]) -> Result<Vec<i64>, String> {
    let expr = expr.trim();
    if expr.is_empty() {
        return Err("empty subscript".into());
    }
    let mut coeffs = vec![0i64; indices.len()];
    // Split into signed terms.
    let mut terms: Vec<(i64, String)> = Vec::new();
    let mut sign = 1i64;
    let mut cur = String::new();
    for ch in expr.chars() {
        match ch {
            '+' | '-' => {
                // An operator closes the current term (if any) and sets
                // the sign of the NEXT term; consecutive operators
                // compose ("--i" is "+i").
                if !cur.trim().is_empty() {
                    terms.push((sign, std::mem::take(&mut cur)));
                    sign = 1;
                } else {
                    cur.clear();
                }
                if ch == '-' {
                    sign = -sign;
                }
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        terms.push((sign, cur));
    }
    if terms.is_empty() {
        return Err(format!("empty subscript expression `{expr}`"));
    }
    for (sign, term) in terms {
        let term = term.trim().to_string();
        let (coef, ident) = match term.split_once('*') {
            Some((c, id)) => {
                let c: i64 = c
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad coefficient `{c}` in `{expr}`"))?;
                (c, id.trim().to_string())
            }
            None => {
                if term.chars().all(|c| c.is_ascii_digit()) {
                    continue; // constant offset: dropped
                }
                (1, term)
            }
        };
        let Some(pos) = indices.iter().position(|x| *x == ident) else {
            return Err(format!("unknown loop index `{ident}` in `{expr}`"));
        };
        let add = coef.checked_mul(sign).ok_or("coefficient overflow")?;
        coeffs[pos] = coeffs[pos].checked_add(add).ok_or("coefficient overflow")?;
    }
    Ok(coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MATMUL: &str = "\
kernel = matmul
for i in 0..n
for j in 0..n
for k in 0..n
C[i,j] += A[i,k] * B[k,j]
";

    #[test]
    fn parses_matmul() {
        let k = Kernel::parse(MATMUL).unwrap();
        assert_eq!(k.name, "matmul");
        assert_eq!(k.indices, ["i", "j", "k"]);
        assert_eq!(k.refs.len(), 3);
        assert_eq!(k.refs[0].render(&k.indices), "C[i,j]");
        assert_eq!(k.refs[1].map, vec![vec![1, 0, 0], vec![0, 0, 1]]);
        assert_eq!(k.flops_per_iter, 1.0);
    }

    #[test]
    fn same_array_two_maps_gives_two_refs_and_dedup_works() {
        let k =
            Kernel::parse("for i in 0..n\nfor j in 0..n\nF[i] += P[i] * P[j] + P[i]\n").unwrap();
        // F[i], P[i], P[j] — the second P[i] deduplicates.
        assert_eq!(k.refs.len(), 3);
        assert_eq!(k.refs[1].map, vec![vec![1, 0]]);
        assert_eq!(k.refs[2].map, vec![vec![0, 1]]);
    }

    #[test]
    fn affine_subscripts_with_offsets_and_coefficients() {
        let k =
            Kernel::parse("for t in 0..n\nfor i in 0..n\nA[t+i] += A[t+i-1] * W[2*i-t]\n").unwrap();
        // A[t+i] and A[t+i-1] share a linear part: deduplicated.
        assert_eq!(k.refs.len(), 2);
        assert_eq!(k.refs[0].map, vec![vec![1, 1]]);
        assert_eq!(k.refs[1].map, vec![vec![-1, 2]]);
        assert_eq!(k.refs[1].render(&k.indices), "W[-t+2*i]");
    }

    #[test]
    fn a_minus_does_not_leak_into_later_terms() {
        // Regression: the sign of one term must not carry over to the
        // next ("−i+j" is j−i, not −i−j), while consecutive operators
        // still compose ("--j" is +j).
        let k = Kernel::parse(
            "for i in 0..n\nfor j in 0..n\nfor k in 0..n\nC[-i+j] += A[i-j+k] * B[--j]\n",
        )
        .unwrap();
        assert_eq!(k.refs[0].map, vec![vec![-1, 1, 0]]);
        assert_eq!(k.refs[1].map, vec![vec![1, -1, 1]]);
        assert_eq!(k.refs[2].map, vec![vec![0, 1, 0]]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("for i in 0..n\nfor i in 0..n\n", 2, "duplicate loop index"),
            ("for i in 0..m\n", 1, "0..n"),
            ("for i in 0..n\nC[q] += A[i]\n", 2, "unknown loop index `q`"),
            ("for i in 0..n\nC[i] += A[i\n", 2, "unclosed"),
            ("bogus = 1\n", 1, "unknown key"),
            (
                "for i in 0..n\nflops-per-iter = -2\nC[i] += A[i]\n",
                2,
                "positive",
            ),
            ("for i in 0..n\nC[i] += x * A[i]\n", 2, "array reference"),
        ];
        for (text, line, needle) in cases {
            let err = Kernel::parse(text).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("line {line}")) && msg.contains(needle),
                "{text:?} -> {msg}"
            );
        }
        // Whole-file errors use line 0.
        let err = Kernel::parse("for i in 0..n\n").unwrap_err();
        assert!(err.to_string().contains("no statement"), "{err}");
    }

    #[test]
    fn escape_hatch_skips_structure_requirements() {
        let k = Kernel::parse("kernel = fft\nbound = fft-pebbling\n").unwrap();
        assert_eq!(k.special, Some(SpecialBound::FftPebbling));
        assert!(k.refs.is_empty());
    }
}
