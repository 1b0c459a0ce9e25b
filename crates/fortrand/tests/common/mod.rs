//! Shared by the on/off bit-identity suites.

use fortrand::{lexer, lower, parser, LoweredProgram};

/// The program the optimized-versus-naive tests run: `fortrand::compile`'s, or — with
/// `optimize` off — the bare lowering, reached through the stage functions.
pub fn program(source: &str, optimize: bool) -> LoweredProgram {
    if optimize {
        return fortrand::compile(source).expect("compiles").0;
    }
    let tokens = lexer::tokenize(source).expect("tokenizes");
    lower::lower(&parser::parse(&tokens).expect("parses")).expect("lowers")
}
