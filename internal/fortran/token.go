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

// lexer turns source text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	toks []Token
}

// Lex tokenizes src.  Identifiers and keywords are lower-cased; blank
// lines collapse; ordinary comments are dropped while structured
// directives become DIRECTIVE tokens carrying the comment payload.
func Lex(src string) ([]Token, error) {
	lx := &lexer{src: src, line: 1}
	if err := lx.run(); err != nil {
		return nil, err
	}
	return lx.toks, nil
}

func (lx *lexer) run() error {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.emitNewline()
			lx.pos++
			lx.line++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '!':
			if err := lx.comment(); err != nil {
				return err
			}
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
			if err := lx.dotOperator(); err != nil {
				return err
			}
		case isAlpha(c):
			lx.identifier()
		default:
			if err := lx.operator(); err != nil {
				return err
			}
		}
	}
	lx.emitNewline()
	lx.emit(EOF, "")
	return nil
}

func (lx *lexer) emit(k Kind, text string) {
	lx.toks = append(lx.toks, Token{Kind: k, Text: text, Line: lx.line})
}

// emitNewline adds a NEWLINE unless the token stream is empty or
// already ends with one (blank-line collapsing).
func (lx *lexer) emitNewline() {
	if n := len(lx.toks); n == 0 || lx.toks[n-1].Kind == NEWLINE {
		return
	}
	lx.emit(NEWLINE, "")
}

// comment consumes "!..." to end of line.  Structured payloads (!hpf$,
// !prob, !trip) are preserved as DIRECTIVE tokens.
func (lx *lexer) comment() error {
	start := lx.pos
	for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
		lx.pos++
	}
	text := strings.TrimSpace(lx.src[start+1 : lx.pos])
	lower := strings.ToLower(text)
	if strings.HasPrefix(lower, "hpf$") || strings.HasPrefix(lower, "prob") || strings.HasPrefix(lower, "trip") {
		lx.emit(DIRECTIVE, lower)
		lx.emitNewline()
	}
	return nil
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
