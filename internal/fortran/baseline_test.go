package fortran

// The front end as it stood before the parser pulled tokens from a
// streaming lexer: a lexer that materialises the whole []Token first,
// and a parser that indexes into it.  Kept verbatim (apart from the
// names, and the exact-keyword rule for !prob and !trip) as the
// differential oracle of baseline_corpus_test.go and
// FuzzLexMatchesBaseline.

import (
	"fmt"
	"strconv"
	"strings"
)

// lexerBaseline is the slice lexer the streaming lexer replaced.
type lexerBaseline struct {
	src  string
	pos  int
	line int
	toks []Token
}

// lexBaseline tokenizes src.  Identifiers and keywords are lower-cased; blank
// lines collapse; ordinary comments are dropped while structured
// directives become DIRECTIVE tokens carrying the comment payload.
func lexBaseline(src string) ([]Token, error) {
	lx := &lexerBaseline{src: src, line: 1}
	if err := lx.run(); err != nil {
		return nil, err
	}
	return lx.toks, nil
}

func (lx *lexerBaseline) run() error {
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

func (lx *lexerBaseline) emit(k Kind, text string) {
	lx.toks = append(lx.toks, Token{Kind: k, Text: text, Line: lx.line})
}

// emitNewline adds a NEWLINE unless the token stream is empty or
// already ends with one (blank-line collapsing).
func (lx *lexerBaseline) emitNewline() {
	if n := len(lx.toks); n == 0 || lx.toks[n-1].Kind == NEWLINE {
		return
	}
	lx.emit(NEWLINE, "")
}

// comment consumes "!..." to end of line.  Structured payloads (!hpf$,
// !prob, !trip) are preserved as DIRECTIVE tokens.
func (lx *lexerBaseline) comment() error {
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
	return nil
}

func (lx *lexerBaseline) number() {
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
func (lx *lexerBaseline) isDotOperator() bool {
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != '.' {
		return false
	}
	i := lx.pos + 1
	for i < len(lx.src) && isAlpha(lx.src[i]) {
		i++
	}
	return i > lx.pos+1 && i < len(lx.src) && lx.src[i] == '.'
}

func (lx *lexerBaseline) dotOperator() error {
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

func (lx *lexerBaseline) identifier() {
	start := lx.pos
	for lx.pos < len(lx.src) && (isAlpha(lx.src[lx.pos]) || isDigit(lx.src[lx.pos]) || lx.src[lx.pos] == '_') {
		lx.pos++
	}
	lx.emit(IDENT, strings.ToLower(lx.src[start:lx.pos]))
}

func (lx *lexerBaseline) operator() error {
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

// parseFileBaseline builds the AST for a source file containing one PROGRAM
// and any number of SUBROUTINE units, in any order.
func parseFileBaseline(src string) (*File, error) {
	toks, err := lexBaseline(src)
	if err != nil {
		return nil, err
	}
	p := &parserBaseline{toks: toks}
	f := &File{}
	p.skipNewlines()
	for !p.atEOF() {
		switch {
		case p.isIdent("program"):
			if f.Program != nil {
				return nil, p.errf("multiple PROGRAM units")
			}
			prog, err := p.program()
			if err != nil {
				return nil, err
			}
			f.Program = prog
		case p.isIdent("subroutine"):
			sub, err := p.subroutine()
			if err != nil {
				return nil, err
			}
			f.Subs = append(f.Subs, sub)
		default:
			return nil, p.errf("expected PROGRAM or SUBROUTINE, found %q", p.peek().Text)
		}
		p.skipNewlines()
	}
	if f.Program == nil {
		return nil, &SyntaxError{1, "no PROGRAM unit"}
	}
	return f, nil
}

type parserBaseline struct {
	toks []Token
	pos  int

	pendingProb float64 // from a !prob directive
	pendingTrip int     // from a !trip directive
}

func (p *parserBaseline) peek() Token { return p.toks[p.pos] }
func (p *parserBaseline) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parserBaseline) atEOF() bool { return p.peek().Kind == EOF }
func (p *parserBaseline) line() int   { return p.peek().Line }
func (p *parserBaseline) isIdent(s string) bool {
	t := p.peek()
	return t.Kind == IDENT && t.Text == s
}

func (p *parserBaseline) errf(format string, args ...interface{}) error {
	return &SyntaxError{p.line(), fmt.Sprintf(format, args...)}
}

func (p *parserBaseline) expect(k Kind) (Token, error) {
	t := p.peek()
	if t.Kind != k {
		return t, p.errf("expected %s, found %s %q", k, t.Kind, t.Text)
	}
	return p.next(), nil
}

func (p *parserBaseline) expectIdent(s string) error {
	if !p.isIdent(s) {
		return p.errf("expected %q, found %q", s, p.peek().Text)
	}
	p.next()
	return nil
}

// skipNewlines consumes newline tokens (blank lines already collapse
// in the lexer, but directives emit their own separators).
func (p *parserBaseline) skipNewlines() {
	for p.peek().Kind == NEWLINE {
		p.next()
	}
}

func (p *parserBaseline) endOfStmt() error {
	if t := p.peek(); t.Kind != NEWLINE && t.Kind != EOF {
		return p.errf("unexpected %s %q after statement", t.Kind, t.Text)
	}
	p.skipNewlines()
	return nil
}

func (p *parserBaseline) program() (*Program, error) {
	prog := &Program{}
	p.skipNewlines()
	p.collectDirectives(prog)
	if err := p.expectIdent("program"); err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	prog.Name = name.Text
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	// Declarations and parameters, in any order, until the first
	// executable statement.
	for {
		p.collectDirectives(prog)
		switch {
		case p.isIdent("parameter"):
			if err := p.paramDecl(prog); err != nil {
				return nil, err
			}
		case p.isIdent("real"), p.isIdent("integer"), p.isIdent("double"):
			if err := p.typeDecl(prog); err != nil {
				return nil, err
			}
		default:
			goto body
		}
	}
body:
	stmts, err := p.stmtList(prog, func() bool { return p.isIdent("end") })
	if err != nil {
		return nil, err
	}
	prog.Body = stmts
	if err := p.expectIdent("end"); err != nil {
		return nil, err
	}
	if p.isIdent("program") {
		p.next()
		if p.peek().Kind == IDENT {
			p.next()
		}
	}
	p.skipNewlines()
	return prog, nil
}

// subroutine parses one SUBROUTINE unit.
func (p *parserBaseline) subroutine() (*Subroutine, error) {
	line := p.line()
	p.next() // "subroutine"
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	sub := &Subroutine{Name: name.Text, Line: line}
	if p.peek().Kind == LPAREN {
		p.next()
		for p.peek().Kind != RPAREN {
			f, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			sub.Formals = append(sub.Formals, f.Text)
			if p.peek().Kind == COMMA {
				p.next()
			}
		}
		p.next() // ')'
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	// Declarations (no PARAMETER inside subroutines in this dialect).
	holder := &Program{}
	for p.isIdent("real") || p.isIdent("integer") || p.isIdent("double") {
		if err := p.typeDecl(holder); err != nil {
			return nil, err
		}
	}
	sub.Decls = holder.Decls
	stmts, err := p.stmtList(holder, func() bool { return p.isIdent("end") })
	if err != nil {
		return nil, err
	}
	sub.Body = stmts
	if err := p.expectIdent("end"); err != nil {
		return nil, err
	}
	if p.isIdent("subroutine") {
		p.next()
		if p.peek().Kind == IDENT {
			p.next()
		}
	}
	p.skipNewlines()
	return sub, nil
}

// collectDirectives consumes DIRECTIVE tokens at statement position.
func (p *parserBaseline) collectDirectives(prog *Program) {
	for p.peek().Kind == DIRECTIVE {
		t := p.next()
		if strings.HasPrefix(t.Text, "hpf$") {
			prog.Directives = append(prog.Directives,
				&Directive{Text: strings.TrimSpace(strings.TrimPrefix(t.Text, "hpf$")), Line: t.Line})
		} else if fields := strings.Fields(t.Text); len(fields) == 2 {
			// A hint: the lexer queued it because its first word is
			// exactly "prob" or "trip".
			switch fields[0] {
			case "prob":
				if v, err := strconv.ParseFloat(fields[1], 64); err == nil && v > 0 && v < 1 {
					p.pendingProb = v
				}
			case "trip":
				if v, err := strconv.Atoi(fields[1]); err == nil && v > 0 {
					p.pendingTrip = v
				}
			}
		}
		p.skipNewlines()
	}
}

func (p *parserBaseline) paramDecl(prog *Program) error {
	p.next() // "parameter"
	if _, err := p.expect(LPAREN); err != nil {
		return err
	}
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return err
		}
		val, err := p.expr()
		if err != nil {
			return err
		}
		prog.Params = append(prog.Params, &Param{Name: name.Text, Line: name.Line, Value: -1})
		// The value expression is const-folded during sema; stash it by
		// re-parsing there.  To avoid a second field we fold here for
		// the common literal / arithmetic cases over earlier params.
		v, ok := foldInt(val, prog.Params[:len(prog.Params)-1])
		if !ok {
			return &SyntaxError{name.Line, fmt.Sprintf("parameter %s is not a constant integer expression", name.Text)}
		}
		prog.Params[len(prog.Params)-1].Value = v
		if p.peek().Kind == COMMA {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(RPAREN); err != nil {
		return err
	}
	return p.endOfStmt()
}

func (p *parserBaseline) typeDecl(prog *Program) error {
	var dt DataType
	switch p.peek().Text {
	case "real":
		dt = Real
		p.next()
	case "integer":
		dt = Integer
		p.next()
	case "double":
		p.next()
		if err := p.expectIdent("precision"); err != nil {
			return err
		}
		dt = Double
	}
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		d := &Decl{Name: name.Text, Type: dt, Line: name.Line}
		if p.peek().Kind == LPAREN {
			p.next()
			for {
				dim, err := p.expr()
				if err != nil {
					return err
				}
				d.Dims = append(d.Dims, dim)
				if p.peek().Kind == COMMA {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(RPAREN); err != nil {
				return err
			}
		}
		prog.Decls = append(prog.Decls, d)
		if p.peek().Kind == COMMA {
			p.next()
			continue
		}
		break
	}
	return p.endOfStmt()
}

// stmtList parses statements until stop() reports a terminator.
func (p *parserBaseline) stmtList(prog *Program, stop func() bool) ([]Stmt, error) {
	var out []Stmt
	for {
		p.collectDirectives(prog)
		if stop() || p.atEOF() {
			return out, nil
		}
		s, err := p.stmt(prog)
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s)
		}
	}
}

func (p *parserBaseline) stmt(prog *Program) (Stmt, error) {
	switch {
	case p.isIdent("do"):
		return p.doLoop(prog)
	case p.isIdent("if"):
		return p.ifStmt(prog)
	case p.isIdent("call"):
		return p.callStmt()
	case p.isIdent("continue"):
		p.next()
		return nil, p.endOfStmt()
	case p.peek().Kind == IDENT:
		return p.assign()
	}
	return nil, p.errf("expected statement, found %s %q", p.peek().Kind, p.peek().Text)
}

func (p *parserBaseline) doLoop(prog *Program) (Stmt, error) {
	line := p.line()
	trip := p.pendingTrip
	p.pendingTrip = 0
	p.next() // "do"
	v, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	lo, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	hi, err := p.expr()
	if err != nil {
		return nil, err
	}
	var step Expr
	if p.peek().Kind == COMMA {
		p.next()
		if step, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	body, err := p.stmtList(prog, p.atEndKeyword("do"))
	if err != nil {
		return nil, err
	}
	if err := p.consumeEnd("do"); err != nil {
		return nil, err
	}
	return &Do{Var: v.Text, Lo: lo, Hi: hi, Step: step, Body: body, Line: line, TripHint: trip}, nil
}

func (p *parserBaseline) ifStmt(prog *Program) (Stmt, error) {
	line := p.line()
	prob := p.pendingProb
	p.pendingProb = 0
	p.next() // "if"
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if !p.isIdent("then") {
		// One-line logical IF: "if (cond) stmt".
		s, err := p.stmt(prog)
		if err != nil {
			return nil, err
		}
		return &If{Cond: cond, Then: []Stmt{s}, Line: line, ProbHint: prob}, nil
	}
	p.next() // "then"
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	thenStop := func() bool { return p.isIdent("else") || p.atEndKeyword("if")() }
	thenStmts, err := p.stmtList(prog, thenStop)
	if err != nil {
		return nil, err
	}
	var elseStmts []Stmt
	if p.isIdent("else") {
		p.next()
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		if elseStmts, err = p.stmtList(prog, p.atEndKeyword("if")); err != nil {
			return nil, err
		}
	}
	if err := p.consumeEnd("if"); err != nil {
		return nil, err
	}
	return &If{Cond: cond, Then: thenStmts, Else: elseStmts, Line: line, ProbHint: prob}, nil
}

// atEndKeyword recognizes "end kw", "endkw" at statement position.
func (p *parserBaseline) atEndKeyword(kw string) func() bool {
	return func() bool {
		if p.isIdent("end" + kw) {
			return true
		}
		if !p.isIdent("end") {
			return false
		}
		if p.pos+1 < len(p.toks) {
			t := p.toks[p.pos+1]
			return t.Kind == IDENT && t.Text == kw
		}
		return false
	}
}

func (p *parserBaseline) consumeEnd(kw string) error {
	switch {
	case p.isIdent("end" + kw):
		p.next()
	case p.isIdent("end"):
		p.next()
		if err := p.expectIdent(kw); err != nil {
			return err
		}
	default:
		return p.errf("expected end %s", kw)
	}
	return p.endOfStmt()
}

// callStmt parses "call name(args...)".
func (p *parserBaseline) callStmt() (Stmt, error) {
	line := p.line()
	p.next() // "call"
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	c := &CallStmt{Name: name.Text, Line: line}
	if p.peek().Kind == LPAREN {
		p.next()
		for p.peek().Kind != RPAREN {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			c.Args = append(c.Args, a)
			if p.peek().Kind == COMMA {
				p.next()
			}
		}
		p.next() // ')'
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parserBaseline) assign() (Stmt, error) {
	line := p.line()
	lhs, err := p.refOrCall()
	if err != nil {
		return nil, err
	}
	ref, ok := lhs.(*Ref)
	if !ok {
		return nil, p.errf("left side of assignment must be a variable")
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	return &Assign{LHS: ref, RHS: rhs, Line: line}, nil
}

// Expression grammar, lowest to highest precedence:
//
//	or -> and -> not -> rel -> add -> mul -> unary -> pow -> primary
func (p *parserBaseline) expr() (Expr, error) { return p.orExpr() }

func (p *parserBaseline) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == OR {
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: LOr, L: l, R: r}
	}
	return l, nil
}

func (p *parserBaseline) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == AND {
		p.next()
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: LAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parserBaseline) notExpr() (Expr, error) {
	if p.peek().Kind == NOT {
		p.next()
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Un{Neg: false, X: x}, nil
	}
	return p.relExpr()
}

func (p *parserBaseline) relExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	ops := map[Kind]BinKind{LT: Lt, LE: Le, GT: Gt, GE: Ge, EQ: Eq, NE: Ne}
	if op, ok := ops[p.peek().Kind]; ok {
		p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &Bin{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parserBaseline) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op BinKind
		switch p.peek().Kind {
		case PLUS:
			op = Add
		case MINUS:
			op = Sub
		default:
			return l, nil
		}
		p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
}

func (p *parserBaseline) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op BinKind
		switch p.peek().Kind {
		case STAR:
			op = Mul
		case SLASH:
			op = Div
		default:
			return l, nil
		}
		p.next()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
}

func (p *parserBaseline) unaryExpr() (Expr, error) {
	switch p.peek().Kind {
	case MINUS:
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Un{Neg: true, X: x}, nil
	case PLUS:
		p.next()
		return p.unaryExpr()
	}
	return p.powExpr()
}

func (p *parserBaseline) powExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == POW {
		p.next()
		// Exponentiation is right-associative.
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Bin{Op: Pow, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parserBaseline) primary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case INT:
		p.next()
		v, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, &SyntaxError{t.Line, fmt.Sprintf("bad integer literal %q", t.Text)}
		}
		return &IntLit{Val: v}, nil
	case REAL:
		p.next()
		norm := strings.Map(func(r rune) rune {
			if r == 'd' {
				return 'e'
			}
			return r
		}, t.Text)
		v, err := strconv.ParseFloat(norm, 64)
		if err != nil {
			return nil, &SyntaxError{t.Line, fmt.Sprintf("bad real literal %q", t.Text)}
		}
		return &RealLit{Val: v, Text: t.Text}, nil
	case IDENT:
		return p.refOrCall()
	case LPAREN:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected expression, found %s %q", t.Kind, t.Text)
}

// refOrCall parses NAME, NAME(subs...), or INTRINSIC(args...).
func (p *parserBaseline) refOrCall() (Expr, error) {
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != LPAREN {
		return &Ref{Name: name.Text, Line: name.Line}, nil
	}
	p.next()
	var args []Expr
	if p.peek().Kind != RPAREN {
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.peek().Kind == COMMA {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if intrinsics[name.Text] {
		return &Call{Fn: name.Text, Args: args}, nil
	}
	return &Ref{Name: name.Text, Subs: args, Line: name.Line}, nil
}

// affineOfBaseline is AffineOf as it stood before it folded a whole
// expression into one coefficient map: one map per sub-expression.
func affineOfBaseline(u *Unit, e Expr) (Affine, bool) {
	switch e := e.(type) {
	case *IntLit:
		return Affine{Const: e.Val}, true
	case *Ref:
		if len(e.Subs) != 0 {
			return Affine{}, false
		}
		if v, ok := u.Params[e.Name]; ok {
			return Affine{Const: v}, true
		}
		return Affine{Coeffs: map[string]int{e.Name: 1}}, true
	case *Un:
		if !e.Neg {
			return Affine{}, false
		}
		a, ok := affineOfBaseline(u, e.X)
		if !ok {
			return Affine{}, false
		}
		return scaleBaseline(a, -1), true
	case *Bin:
		l, okL := affineOfBaseline(u, e.L)
		r, okR := affineOfBaseline(u, e.R)
		switch e.Op {
		case Add:
			if okL && okR {
				return addBaseline(l, r, 1), true
			}
		case Sub:
			if okL && okR {
				return addBaseline(l, r, -1), true
			}
		case Mul:
			if okL && okR {
				if l.IsConst() {
					return scaleBaseline(r, l.Const), true
				}
				if r.IsConst() {
					return scaleBaseline(l, r.Const), true
				}
			}
		case Div:
			if okL && okR && r.IsConst() && r.Const != 0 && l.IsConst() && l.Const%r.Const == 0 {
				return Affine{Const: l.Const / r.Const}, true
			}
		}
	}
	return Affine{}, false
}

func scaleBaseline(a Affine, k int) Affine {
	out := Affine{Const: a.Const * k, Coeffs: map[string]int{}}
	for v, c := range a.Coeffs {
		if c*k != 0 {
			out.Coeffs[v] = c * k
		}
	}
	return out
}

func addBaseline(a, b Affine, sign int) Affine {
	out := Affine{Const: a.Const + sign*b.Const, Coeffs: map[string]int{}}
	for v, c := range a.Coeffs {
		out.Coeffs[v] = c
	}
	for v, c := range b.Coeffs {
		out.Coeffs[v] += sign * c
		if out.Coeffs[v] == 0 {
			delete(out.Coeffs, v)
		}
	}
	return out
}
