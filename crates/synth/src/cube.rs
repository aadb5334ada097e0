use std::fmt;

use bist_logicsim::Pattern;

/// A product term (cube) over `width` boolean variables, stored as two
/// multi-word literal masks: `pos` marks variables appearing as positive
/// literals, `neg` as negative literals. A variable in neither mask is
/// absent (don't-care within the cube).
///
/// # Example
///
/// ```
/// use bist_synth::Cube;
///
/// let minterm: bist_logicsim::Pattern = "101".parse()?;
/// let mut cube = Cube::from_minterm(&minterm); // a·b̄·c
/// assert_eq!(cube.num_literals(), 3);
/// cube.remove_literal(1);
/// assert_eq!(cube.num_literals(), 2); // a·c
/// assert!(cube.contains(&"101".parse()?));
/// assert!(cube.contains(&"111".parse()?));
/// assert!(!cube.contains(&"011".parse()?));
/// # Ok::<(), bist_logicsim::ParsePatternError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    width: usize,
    pos: Vec<u64>,
    neg: Vec<u64>,
}

impl Cube {
    /// The cube covering the whole space (no literals).
    pub fn universe(width: usize) -> Self {
        let words = width.div_ceil(64);
        Cube {
            width,
            pos: vec![0; words],
            neg: vec![0; words],
        }
    }

    /// The full minterm cube of `pattern` (every variable a literal).
    pub fn from_minterm(pattern: &Pattern) -> Self {
        let width = pattern.len();
        let pos = pattern.words().to_vec();
        let neg = pos
            .iter()
            .enumerate()
            .map(|(w, &p)| !p & word_mask(width, w))
            .collect();
        Cube { width, pos, neg }
    }

    /// The cube whose literal masks are `pos` and `neg`
    /// (`width.div_ceil(64)` words each).
    pub(crate) fn from_words(width: usize, pos: &[u64], neg: &[u64]) -> Self {
        Cube {
            width,
            pos: pos.to_vec(),
            neg: neg.to_vec(),
        }
    }

    /// Number of variables of the underlying space.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The polarity of variable `var` inside the cube (`None` if absent).
    pub fn literal(&self, var: usize) -> Option<bool> {
        assert!(var < self.width, "variable {var} out of range");
        if (self.pos[var / 64] >> (var % 64)) & 1 == 1 {
            Some(true)
        } else if (self.neg[var / 64] >> (var % 64)) & 1 == 1 {
            Some(false)
        } else {
            None
        }
    }

    /// Sets variable `var` to the given polarity.
    pub fn set_literal(&mut self, var: usize, polarity: bool) {
        assert!(var < self.width, "variable {var} out of range");
        let (w, b) = (var / 64, 1u64 << (var % 64));
        if polarity {
            self.pos[w] |= b;
            self.neg[w] &= !b;
        } else {
            self.neg[w] |= b;
            self.pos[w] &= !b;
        }
    }

    /// Drops variable `var` from the cube (expanding it).
    pub fn remove_literal(&mut self, var: usize) {
        assert!(var < self.width, "variable {var} out of range");
        let (w, b) = (var / 64, 1u64 << (var % 64));
        self.pos[w] &= !b;
        self.neg[w] &= !b;
    }

    /// Number of literals in the cube.
    pub fn num_literals(&self) -> usize {
        self.pos
            .iter()
            .chain(self.neg.iter())
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Iterates over `(variable, polarity)` literals.
    pub fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        literals(&self.pos, &self.neg)
    }

    /// True if `minterm` satisfies every literal of the cube.
    pub fn contains(&self, minterm: &Pattern) -> bool {
        assert_eq!(minterm.len(), self.width, "minterm width mismatch");
        let x = minterm.words();
        self.pos
            .iter()
            .zip(&self.neg)
            .zip(x)
            .all(|((&p, &n), &x)| p & !x == 0 && n & x == 0)
    }

    /// True if every minterm of `other` is contained in `self`
    /// (single-cube containment check).
    pub fn covers_cube(&self, other: &Cube) -> bool {
        assert_eq!(self.width, other.width);
        for (w, (&sp, &sn)) in self.pos.iter().zip(&self.neg).enumerate() {
            // every literal of self must appear in other with same polarity
            if sp & !other.pos[w] != 0 || sn & !other.neg[w] != 0 {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Cube {
    /// PLA-style row: `1` positive, `0` negative, `-` absent.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_row(f, self.width, &self.pos, &self.neg)
    }
}

/// The valid-bit mask of word `w` of a `width`-bit vector.
pub(crate) fn word_mask(width: usize, w: usize) -> u64 {
    let rem = width.saturating_sub(64 * w);
    if rem >= 64 {
        !0
    } else {
        (1u64 << rem) - 1
    }
}

/// Transposes `minterms` into one `words`-word column per variable:
/// bit `j` of column `v` (`[v * words..][..words]`) is minterm `j`'s
/// value of variable `v`.
pub(crate) fn transpose<'a>(
    width: usize,
    minterms: impl Iterator<Item = &'a Pattern>,
    words: usize,
) -> Vec<u64> {
    let mut columns = vec![0u64; width * words];
    for (j, m) in minterms.enumerate() {
        assert_eq!(m.len(), width, "minterm width mismatch");
        let (w, bit) = (j / 64, 1u64 << (j % 64));
        for (mw, &x) in m.words().iter().enumerate() {
            let mut ones = x;
            while ones != 0 {
                let v = 64 * mw + ones.trailing_zeros() as usize;
                ones &= ones - 1;
                columns[v * words + w] |= bit;
            }
        }
    }
    columns
}

/// The `(variable, polarity)` literals of the cube with literal masks
/// `pos`/`neg`, in ascending variable order.
pub(crate) fn literals<'a>(
    pos: &'a [u64],
    neg: &'a [u64],
) -> impl Iterator<Item = (usize, bool)> + 'a {
    pos.iter().zip(neg).enumerate().flat_map(|(w, (&p, &n))| {
        let mut bits = p | n;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some((64 * w + b, (p >> b) & 1 == 1))
        })
    })
}

/// Writes the PLA row of the cube with literal masks `pos`/`neg`.
pub(crate) fn write_row(
    f: &mut fmt::Formatter<'_>,
    width: usize,
    pos: &[u64],
    neg: &[u64],
) -> fmt::Result {
    for v in 0..width {
        let (w, b) = (v / 64, v % 64);
        let c = if (pos[w] >> b) & 1 == 1 {
            '1'
        } else if (neg[w] >> b) & 1 == 1 {
            '0'
        } else {
            '-'
        };
        write!(f, "{c}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minterm_round_trip() {
        let p: Pattern = "0110".parse().unwrap();
        let c = Cube::from_minterm(&p);
        assert_eq!(c.num_literals(), 4);
        assert_eq!(c.to_string(), "0110");
        assert!(c.contains(&p));
        assert!(!c.contains(&"0111".parse().unwrap()));
    }

    #[test]
    fn expansion_grows_containment() {
        let p: Pattern = "0110".parse().unwrap();
        let mut c = Cube::from_minterm(&p);
        c.remove_literal(0);
        assert_eq!(c.to_string(), "-110");
        assert!(c.contains(&"1110".parse().unwrap()));
        assert!(c.contains(&"0110".parse().unwrap()));
        assert!(!c.contains(&"0100".parse().unwrap()));
    }

    #[test]
    fn universe_contains_everything() {
        let u = Cube::universe(7);
        assert_eq!(u.num_literals(), 0);
        assert!(u.contains(&"1010101".parse().unwrap()));
        assert_eq!(u.to_string(), "-------");
    }

    #[test]
    fn covers_cube_ordering() {
        let big: Cube = {
            let mut c = Cube::from_minterm(&"110".parse().unwrap());
            c.remove_literal(2);
            c
        };
        let small = Cube::from_minterm(&"110".parse().unwrap());
        assert!(big.covers_cube(&small));
        assert!(!small.covers_cube(&big));
        assert!(big.covers_cube(&big));
    }

    #[test]
    fn set_literal_flips_polarity() {
        let mut c = Cube::universe(3);
        c.set_literal(1, true);
        assert_eq!(c.literal(1), Some(true));
        c.set_literal(1, false);
        assert_eq!(c.literal(1), Some(false));
        assert_eq!(c.num_literals(), 1);
    }

    #[test]
    fn wide_cubes_cross_word_boundaries() {
        let p = Pattern::from_fn(130, |i| i % 3 == 0);
        let c = Cube::from_minterm(&p);
        assert_eq!(c.num_literals(), 130);
        assert_eq!(c.literal(129), Some(p.get(129)));
        assert!(c.contains(&p));
    }
}
