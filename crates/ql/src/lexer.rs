//! The JustQL lexer: a pull iterator over a statement's tokens.
//!
//! The parser asks for one token at a time, so parsing a statement never
//! holds more than one token of lookahead (a 1 000-row INSERT's tokens
//! took 1 MiB as a vector).

use crate::error::QlError;
use crate::Result;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Identifier or keyword (keywords are matched case-insensitively by
    /// the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// Punctuation / operator.
    Punct(&'static str),
}

impl Token {
    /// The token rendered for error messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier '{s}'"),
            Token::Int(v) => format!("integer {v}"),
            Token::Float(v) => format!("float {v}"),
            Token::Str(s) => format!("string '{s}'"),
            Token::Punct(p) => format!("'{p}'"),
        }
    }

    /// Whether this is the given keyword (case-insensitive).
    pub(crate) fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

const PUNCTS: &[&str] = &[
    "<=", ">=", "!=", "<>", "::", "(", ")", ",", ";", "*", "=", "<", ">", "+", "-", "/", "%", ".",
    "{", "}", ":",
];

/// Pulls the tokens of a JustQL statement one at a time, so the parser
/// holds one token of lookahead instead of the whole statement's tokens.
/// After the first error it yields nothing more.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    fn fail(&mut self, msg: String) -> Option<Result<Token>> {
        self.pos = self.input.len();
        Some(Err(QlError::Lex(msg)))
    }
}

impl Iterator for Lexer<'_> {
    type Item = Result<Token>;

    fn next(&mut self) -> Option<Result<Token>> {
        let (input, bytes) = (self.input, self.input.as_bytes());
        let mut i = self.pos;
        // Whitespace and line comments.
        loop {
            match bytes.get(i) {
                Some(b) if b.is_ascii_whitespace() => i += 1,
                Some(b'-') if bytes.get(i + 1) == Some(&b'-') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                Some(_) => break,
                None => {
                    self.pos = i;
                    return None;
                }
            }
        }
        let c = bytes[i] as char;
        // String literal.
        if c == '\'' {
            let mut s = String::new();
            i += 1;
            loop {
                match bytes.get(i) {
                    None => return self.fail("unterminated string".into()),
                    Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                        s.push('\'');
                        i += 2;
                    }
                    Some(b'\'') => {
                        i += 1;
                        break;
                    }
                    Some(&b) => {
                        s.push(b as char);
                        i += 1;
                    }
                }
            }
            self.pos = i;
            return Some(Ok(Token::Str(s)));
        }
        // Number.
        if c.is_ascii_digit()
            || (c == '.'
                && bytes
                    .get(i + 1)
                    .map(|b| b.is_ascii_digit())
                    .unwrap_or(false))
        {
            let start = i;
            let mut saw_dot = false;
            let mut saw_exp = false;
            while i < bytes.len() {
                let b = bytes[i] as char;
                if b.is_ascii_digit() {
                    i += 1;
                } else if b == '.' && !saw_dot && !saw_exp {
                    saw_dot = true;
                    i += 1;
                } else if (b == 'e' || b == 'E') && !saw_exp && i > start {
                    saw_exp = true;
                    i += 1;
                    if matches!(bytes.get(i), Some(b'+') | Some(b'-')) {
                        i += 1;
                    }
                } else {
                    break;
                }
            }
            let text = &input[start..i];
            let token = if saw_dot || saw_exp {
                text.parse().map(Token::Float).ok()
            } else {
                text.parse().map(Token::Int).ok()
            };
            return match token {
                Some(token) => {
                    self.pos = i;
                    Some(Ok(token))
                }
                None => self.fail(format!("bad number '{text}'")),
            };
        }
        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            self.pos = i;
            return Some(Ok(Token::Ident(input[start..i].to_string())));
        }
        // Punctuation (longest match first).
        match PUNCTS.iter().find(|p| input[i..].starts_with(**p)) {
            Some(p) => {
                self.pos = i + p.len();
                Some(Ok(Token::Punct(p)))
            }
            None => self.fail(format!("unexpected character '{c}'")),
        }
    }
}

/// Tokenizes a whole JustQL statement.
#[cfg(test)]
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>> {
    Lexer::new(input).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let t = tokenize("SELECT fid, geom FROM t WHERE fid = 52*9").unwrap();
        assert_eq!(t[0], Token::Ident("SELECT".into()));
        assert!(t[0].is_kw("select"));
        assert_eq!(t[2], Token::Punct(","));
        assert_eq!(t[8], Token::Punct("="));
        assert_eq!(t[9], Token::Int(52));
        assert_eq!(t[10], Token::Punct("*"));
    }

    #[test]
    fn numbers_and_strings() {
        let t = tokenize("1 2.5 1e3 2.5E-2 'it''s' ''").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Int(1),
                Token::Float(2.5),
                Token::Float(1000.0),
                Token::Float(0.025),
                Token::Str("it's".into()),
                Token::Str(String::new()),
            ]
        );
    }

    #[test]
    fn multi_char_punct() {
        let t = tokenize("a <= b >= c != d <> e :: f").unwrap();
        assert!(t.contains(&Token::Punct("<=")));
        assert!(t.contains(&Token::Punct(">=")));
        assert!(t.contains(&Token::Punct("!=")));
        assert!(t.contains(&Token::Punct("<>")));
        assert!(t.contains(&Token::Punct("::")));
    }

    #[test]
    fn comments_skipped() {
        let t = tokenize("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn errors() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("SELECT @").is_err());
    }

    #[test]
    fn json_hint_tokens() {
        let t = tokenize("{'a': 'z3'}").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Punct("{"),
                Token::Str("a".into()),
                Token::Punct(":"),
                Token::Str("z3".into()),
                Token::Punct("}"),
            ]
        );
    }
}
