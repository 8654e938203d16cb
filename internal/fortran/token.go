// Package fortran implements the front end for the restricted Fortran
// dialect accepted by the data layout assistant.
//
// The paper's prototype restricts its input to intra-procedural code
// whose non-linear control flow consists of DO loops and IF statements
// (§3).  This package accepts exactly that subset, written free-form:
//
//	program adi
//	  parameter (n = 512)
//	  double precision x(n,n), a(n,n), b(n,n)
//	  do iter = 1, 10
//	    do j = 2, n
//	      do i = 1, n
//	        x(i,j) = x(i,j) - x(i,j-1)*a(i,j)/b(i,j-1)
//	      end do
//	    end do
//	  end do
//	end
//
// Comments start with "!".  Two structured comment forms are
// recognized rather than skipped:
//
//	!hpf$ ...      HPF directives (ALIGN, DISTRIBUTE, TEMPLATE), used
//	               when the tool extends a partially specified layout.
//	!prob p        branch probability annotation for the following IF
//	               (the paper: "supplied by the user or ... a guessing
//	               heuristic").
//	!trip n        trip count annotation for the following DO when its
//	               bounds are not compile-time constants.
//
// A hint's keyword must be the comment's whole first word: "! probably"
// and "! tripcount 4" are ordinary comments.
package fortran

import (
	"fmt"
	"strings"
	"unicode"
)

// Kind classifies a token.
type Kind int8

const (
	EOF Kind = iota
	NEWLINE
	IDENT
	INT
	REAL
	LPAREN
	RPAREN
	COMMA
	PLUS
	MINUS
	STAR
	SLASH
	POW // **
	ASSIGN
	COLON
	// Relational / logical operators (both F77 ".lt." and modern "<").
	LT
	LE
	GT
	GE
	EQ
	NE
	AND
	OR
	NOT
	DIRECTIVE // whole-line !hpf$ / !prob / !trip payload
)

var kindNames = map[Kind]string{
	EOF: "end of file", NEWLINE: "end of line", IDENT: "identifier",
	INT: "integer", REAL: "real", LPAREN: "(", RPAREN: ")", COMMA: ",",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", POW: "**",
	ASSIGN: "=", COLON: ":", LT: "<", LE: "<=", GT: ">", GE: ">=",
	EQ: "==", NE: "/=", AND: ".and.", OR: ".or.", NOT: ".not.",
	DIRECTIVE: "directive",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int8(k))
}

// Token is one lexical unit with its source line.
type Token struct {
	Kind Kind
	Text string // lower-cased for identifiers
	Line int
}

// SyntaxError describes a lexical or parse failure.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// lexer is a stepper over source text: each step consumes source up
// to the next construct that produces tokens and queues them.  The
// parser pulls tokens through the queue, so the token stream is never
// materialised; Lex is a loop over the same stepper.
type lexer struct {
	src  string
	pos  int
	line int

	// q is a ring of tokens produced but not yet consumed: the parser
	// looks at most two tokens ahead, and one step queues at most two
	// (a directive and its end of line, or the last end of line and
	// EOF), so four slots always suffice.
	q    [4]Token
	head int
	n    int
	last Kind  // kind of the last token queued; NEWLINE before the first
	done bool  // EOF is queued: the source is exhausted or err is set
	err  error // the first lexical error, after which the stream is EOF
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, last: NEWLINE}
}

// Lex tokenizes src.  Identifiers and keywords are lower-cased; blank
// lines collapse; ordinary comments are dropped while structured
// directives become DIRECTIVE tokens carrying the comment payload.
func Lex(src string) ([]Token, error) {
	lx := newLexer(src)
	var toks []Token
	for {
		t := lx.next()
		if lx.err != nil {
			return nil, lx.err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

// peek returns the token i places ahead of the next one (i <= 1).  EOF
// repeats forever past the end of the stream.
func (lx *lexer) peek(i int) Token {
	for lx.n <= i && !lx.done {
		lx.step()
	}
	if i >= lx.n {
		i = lx.n - 1
	}
	return lx.q[(lx.head+i)%len(lx.q)]
}

// next consumes and returns the next token; EOF is never consumed.
func (lx *lexer) next() Token {
	t := lx.peek(0)
	if t.Kind != EOF {
		lx.head = (lx.head + 1) % len(lx.q)
		lx.n--
	}
	return t
}

// step consumes one construct of the source, queueing the tokens it
// produces (possibly none: blanks, continuations, plain comments).  At
// the end of the source, or at a lexical error, it queues EOF.
func (lx *lexer) step() {
	if lx.pos >= len(lx.src) {
		lx.emitNewline()
		lx.emit(EOF, "")
		lx.done = true
		return
	}
	var err error
	c := lx.src[lx.pos]
	switch {
	case c == '\n':
		lx.emitNewline()
		lx.pos++
		lx.line++
	case c == ' ' || c == '\t' || c == '\r':
		lx.pos++
	case c == '!':
		lx.comment()
	case c == '&':
		// Continuation: swallow through end of line.
		for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
			lx.pos++
		}
		if lx.pos < len(lx.src) {
			lx.pos++
			lx.line++
		}
	case isDigit(c) || (c == '.' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1])):
		lx.number()
	case c == '.' && lx.isDotOperator():
		err = lx.dotOperator()
	case isAlpha(c):
		lx.identifier()
	default:
		err = lx.operator()
	}
	if err != nil {
		lx.err = err
		lx.emit(EOF, "")
		lx.done = true
	}
}

func (lx *lexer) emit(k Kind, text string) {
	lx.q[(lx.head+lx.n)%len(lx.q)] = Token{Kind: k, Text: text, Line: lx.line}
	lx.n++
	lx.last = k
}

// emitNewline adds a NEWLINE unless nothing was emitted yet or the
// last token already is one (blank-line collapsing).
func (lx *lexer) emitNewline() {
	if lx.last != NEWLINE {
		lx.emit(NEWLINE, "")
	}
}

// comment consumes "!..." to end of line.  Structured payloads (!hpf$,
// and !prob or !trip as the first word) are preserved as DIRECTIVE
// tokens.
func (lx *lexer) comment() {
	start := lx.pos
	for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
		lx.pos++
	}
	text := strings.TrimSpace(lx.src[start+1 : lx.pos])
	lower := strings.ToLower(text)
	if w := firstWord(lower); strings.HasPrefix(lower, "hpf$") || w == "prob" || w == "trip" {
		lx.emit(DIRECTIVE, lower)
		lx.emitNewline()
	}
}

// firstWord returns s up to its first white space, splitting where
// strings.Fields does.
func firstWord(s string) string {
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i]
	}
	return s
}

func (lx *lexer) number() {
	start := lx.pos
	isReal := false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case isDigit(c):
			lx.pos++
		case c == '.' && !isReal && !lx.isDotOperator():
			isReal = true
			lx.pos++
		case (c == 'e' || c == 'E' || c == 'd' || c == 'D') && lx.pos+1 < len(lx.src) &&
			(isDigit(lx.src[lx.pos+1]) || ((lx.src[lx.pos+1] == '+' || lx.src[lx.pos+1] == '-') && lx.pos+2 < len(lx.src) && isDigit(lx.src[lx.pos+2]))):
			isReal = true
			lx.pos++
			if lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-' {
				lx.pos++
			}
			for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
				lx.pos++
			}
			goto done
		default:
			goto done
		}
	}
done:
	text := strings.ToLower(lx.src[start:lx.pos])
	if isReal {
		lx.emit(REAL, text)
	} else {
		lx.emit(INT, text)
	}
}

// isDotOperator reports whether the "." at the current position starts
// a Fortran dot operator such as ".lt." rather than a real literal.
func (lx *lexer) isDotOperator() bool {
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != '.' {
		return false
	}
	i := lx.pos + 1
	for i < len(lx.src) && isAlpha(lx.src[i]) {
		i++
	}
	return i > lx.pos+1 && i < len(lx.src) && lx.src[i] == '.'
}

func (lx *lexer) dotOperator() error {
	start := lx.pos
	lx.pos++ // '.'
	for lx.pos < len(lx.src) && isAlpha(lx.src[lx.pos]) {
		lx.pos++
	}
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != '.' {
		return &SyntaxError{lx.line, fmt.Sprintf("malformed dot operator %q", lx.src[start:lx.pos])}
	}
	lx.pos++
	op := strings.ToLower(lx.src[start:lx.pos])
	kinds := map[string]Kind{
		".lt.": LT, ".le.": LE, ".gt.": GT, ".ge.": GE,
		".eq.": EQ, ".ne.": NE, ".and.": AND, ".or.": OR, ".not.": NOT,
	}
	k, ok := kinds[op]
	if !ok {
		return &SyntaxError{lx.line, fmt.Sprintf("unknown operator %q", op)}
	}
	lx.emit(k, op)
	return nil
}

func (lx *lexer) identifier() {
	start := lx.pos
	for lx.pos < len(lx.src) && (isAlpha(lx.src[lx.pos]) || isDigit(lx.src[lx.pos]) || lx.src[lx.pos] == '_') {
		lx.pos++
	}
	lx.emit(IDENT, strings.ToLower(lx.src[start:lx.pos]))
}

func (lx *lexer) operator() error {
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	switch two {
	case "**":
		lx.emit(POW, two)
		lx.pos += 2
		return nil
	case "<=":
		lx.emit(LE, two)
		lx.pos += 2
		return nil
	case ">=":
		lx.emit(GE, two)
		lx.pos += 2
		return nil
	case "==":
		lx.emit(EQ, two)
		lx.pos += 2
		return nil
	case "/=":
		lx.emit(NE, two)
		lx.pos += 2
		return nil
	}
	singles := map[byte]Kind{
		'(': LPAREN, ')': RPAREN, ',': COMMA, '+': PLUS, '-': MINUS,
		'*': STAR, '/': SLASH, '=': ASSIGN, '<': LT, '>': GT, ':': COLON,
	}
	c := lx.src[lx.pos]
	k, ok := singles[c]
	if !ok {
		return &SyntaxError{lx.line, fmt.Sprintf("unexpected character %q", rune(c))}
	}
	lx.emit(k, string(c))
	lx.pos++
	return nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlpha(c byte) bool {
	return unicode.IsLetter(rune(c)) && c < 128
}
