//! Pass 4: no `as` casts to narrower numeric types in
//! `plb-numerics`/`plb-ipm`.

use super::{Context, Pass};
use crate::lexer::{is_word_byte, line_of, word_occurrences};
use crate::report::Violation;

/// Cast targets that can drop bits or change sign coming from the
/// `f64`/`u64` domains the numeric crates work in.
const NARROWING: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32",
];

pub struct LossyCast;

impl Pass for LossyCast {
    fn name(&self) -> &'static str {
        "lossy-cast"
    }

    fn summary(&self) -> &'static str {
        "no narrowing `as` casts in the numeric crates"
    }

    fn run(&self, ctx: &Context, out: &mut Vec<Violation>) {
        for s in ctx.sources {
            let scoped =
                s.rel.starts_with("crates/numerics/src/") || s.rel.starts_with("crates/ipm/src/");
            if !scoped {
                continue;
            }
            let b = s.code.as_bytes();
            for pos in word_occurrences(&s.code, "as") {
                let mut j = pos + 2;
                while j < b.len() && b[j].is_ascii_whitespace() {
                    j += 1;
                }
                let start = j;
                while j < b.len() && is_word_byte(b[j]) {
                    j += 1;
                }
                let target = &s.code[start..j];
                if NARROWING.contains(&target) {
                    out.push(Violation {
                        file: s.rel.clone(),
                        line: line_of(&s.code, pos),
                        pass: self.name(),
                        msg: format!(
                            "`as {target}` can silently truncate, wrap, or change sign; \
                             use `TryFrom`, or a conversion guarded against NaN, negative \
                             and out-of-range values"
                        ),
                    });
                }
            }
        }
    }
}
