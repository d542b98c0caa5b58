//! Approximate sub-word tokenizer for cost accounting.
//!
//! The paper reports monetary cost via input/output token counts (§5.1,
//! Table 5). We do not need byte-exact GPT tokenization — only a stable,
//! deterministic count with the right order of magnitude. This tokenizer
//! follows the common "≈4 characters per token, punctuation splits" rule
//! that OpenAI documents as a rule of thumb, implemented as:
//!
//! * runs of alphanumerics become ceil(len/4) tokens (sub-word pieces);
//! * every punctuation/symbol character is its own token;
//! * whitespace separates but does not count.
//!
//! Prompts are almost always ASCII, so an ASCII text is counted a byte at
//! a time: alphanumerics are `[0-9A-Za-z]`, and the whitespace is what
//! `char::is_whitespace` says of ASCII — `\t \n \x0B \x0C \r` and space
//! (not `u8::is_ascii_whitespace`'s set, which leaves out `\x0B`). Any
//! other text walks its `char`s with the Unicode classes.

/// Count tokens in `text`.
pub fn count_tokens(text: &str) -> u64 {
    if text.is_ascii() {
        count_ascii(text.as_bytes())
    } else {
        count_chars(text)
    }
}

/// [`count_chars`] over ASCII bytes.
fn count_ascii(bytes: &[u8]) -> u64 {
    let mut tokens: u64 = 0;
    let mut run_len: usize = 0;
    for &b in bytes {
        if b.is_ascii_alphanumeric() {
            run_len += 1;
            continue;
        }
        tokens += run_len.div_ceil(4) as u64;
        run_len = 0;
        if !matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ') {
            tokens += 1;
        }
    }
    tokens + run_len.div_ceil(4) as u64
}

/// The count's definition, over any text.
fn count_chars(text: &str) -> u64 {
    let mut tokens: u64 = 0;
    let mut run_len: usize = 0;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            run_len += 1;
        } else {
            if run_len > 0 {
                tokens += run_len.div_ceil(4) as u64;
                run_len = 0;
            }
            if !ch.is_whitespace() {
                tokens += 1;
            }
        }
    }
    if run_len > 0 {
        tokens += run_len.div_ceil(4) as u64;
    }
    tokens
}

/// Token counts for a prompt/response pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenCount {
    pub input: u64,
    pub output: u64,
}

impl TokenCount {
    pub fn of(prompt: &str, response: &str) -> Self {
        TokenCount { input: count_tokens(prompt), output: count_tokens(response) }
    }

    pub fn total(&self) -> u64 {
        self.input + self.output
    }
}

impl std::ops::Add for TokenCount {
    type Output = TokenCount;
    fn add(self, rhs: TokenCount) -> TokenCount {
        TokenCount { input: self.input + rhs.input, output: self.output + rhs.output }
    }
}

impl std::ops::AddAssign for TokenCount {
    fn add_assign(&mut self, rhs: TokenCount) {
        self.input += rhs.input;
        self.output += rhs.output;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_whitespace() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("   \n\t"), 0);
    }

    #[test]
    fn short_words_one_token() {
        assert_eq!(count_tokens("the"), 1);
        assert_eq!(count_tokens("a b c"), 3);
    }

    #[test]
    fn long_words_split_into_pieces() {
        assert_eq!(count_tokens("superhero"), 3, "9 chars -> ceil(9/4) = 3");
        assert_eq!(count_tokens("supercalifragilistic"), 5, "20 chars -> 5");
    }

    #[test]
    fn punctuation_counts_individually() {
        assert_eq!(count_tokens("a,b"), 3);
        assert_eq!(count_tokens("'x'"), 3);
        // `SELECT * FROM t;` = 2 + 1 + 1 + 1 + 1
        assert_eq!(count_tokens("SELECT * FROM t;"), 6);
    }

    #[test]
    fn deterministic() {
        let s = "The quick brown fox jumps over 13 lazy dogs — twice!";
        assert_eq!(count_tokens(s), count_tokens(s));
    }

    #[test]
    fn roughly_four_chars_per_token_on_prose() {
        let prose = "Your task is to fill in the missing values in the target entry \
                     from the superhero database and return a single row";
        let t = count_tokens(prose) as f64;
        let chars = prose.len() as f64;
        let ratio = chars / t;
        assert!((3.0..6.5).contains(&ratio), "chars/token = {ratio}");
    }

    proptest::proptest! {
        /// A prompt's count is its head's plus its tail's whenever the head
        /// is empty or ends in a character that is not alphanumeric: the
        /// counter is back in its start state there. The simulator counts a
        /// remembered head once on that basis.
        #[test]
        fn counts_add_after_a_non_alphanumeric_end(
            a in "[ abcdeé漢0-9,.'?\n\t—\u{A0}]{0,30}",
            end in "[ \n,.'?—\u{A0}]",
            b in "[ abcdeé漢0-9,.'?\n\t—\u{A0}]{0,30}",
        ) {
            let head = format!("{a}{end}");
            proptest::prop_assert_eq!(
                count_tokens(&format!("{head}{b}")),
                count_tokens(&head) + count_tokens(&b)
            );
            proptest::prop_assert_eq!(count_tokens(&b), count_tokens("") + count_tokens(&b));
            if !a.ends_with(char::is_alphanumeric) {
                proptest::prop_assert_eq!(
                    count_tokens(&format!("{a}{b}")),
                    count_tokens(&a) + count_tokens(&b)
                );
            }
        }
    }

    /// Text over ASCII — NUL, all six ASCII White_Space bytes, letters,
    /// digits, punctuation — and the non-ASCII that borders on it: `\u{85}`
    /// and `\u{A0}` (whitespace only as `char`s), `é` and `漢`.
    const MIXED: &str = "[ a-zA-Z0-9\0\t\n\u{0B}\u{0C}\r\u{1F},.'?\u{85}\u{A0}é漢-]{0,40}";

    proptest::proptest! {
        /// The byte path counts an ASCII text as the `char` definition
        /// does, and `count_tokens` of any text is the definition's: the
        /// text's ASCII alone goes through the byte path, the whole text
        /// through whichever path it takes.
        #[test]
        fn the_byte_path_counts_as_the_char_definition(text in MIXED) {
            let ascii: String = text.chars().filter(char::is_ascii).collect();
            let bytes = count_ascii(ascii.as_bytes());
            proptest::prop_assert_eq!(bytes, count_chars(&ascii), "{:?}", ascii);
            proptest::prop_assert_eq!(count_tokens(&ascii), count_chars(&ascii));
            proptest::prop_assert_eq!(count_tokens(&text), count_chars(&text), "{:?}", text);
        }
    }

    #[test]
    fn ascii_whitespace_is_char_whitespace() {
        for b in 0u8..0x80 {
            let s = (b as char).to_string();
            assert_eq!(count_ascii(s.as_bytes()), count_chars(&s), "byte {b:#04x}");
        }
        assert_eq!(count_tokens("a\u{0B}b"), 2, "vertical tab separates");
        assert_eq!(count_tokens("a\u{1F}b"), 3, "unit separator is a symbol");
    }

    /// Why the simulator cuts a prompt only after a `\n`: inside a run of
    /// alphanumerics the counts do not add. `"abc" + "de"` happens to (one
    /// token plus one is ⌈5/4⌉ = 2), `"abc" + "d"` does not (⌈4/4⌉ = 1).
    #[test]
    fn counts_do_not_add_inside_a_word() {
        assert_eq!(count_tokens("abcde"), count_tokens("abc") + count_tokens("de"));
        assert_eq!(count_tokens("abcd"), 1);
        assert_eq!(count_tokens("abc") + count_tokens("d"), 2);
    }

    #[test]
    fn token_count_arithmetic() {
        let a = TokenCount { input: 10, output: 2 };
        let b = TokenCount { input: 5, output: 1 };
        assert_eq!((a + b).total(), 18);
        let mut c = a;
        c += b;
        assert_eq!(c.input, 15);
    }
}
