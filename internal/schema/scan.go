package schema

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The scanner reads a scheme in one forward pass over one string copy
// of the input. It does not recurse and allocates nothing per token.
// Names and attribute values are substrings of that copy; a new string
// is made only where a reference (&amp;, &#NN;) or a carriage return
// has to be decoded, or where an appinfo's text comes in more than one
// piece.
//
// It accepts exactly the documents encoding/xml's strict Decoder
// accepts into xsSchema, and fills the same struct: the decoder it
// replaced is kept as a test oracle (oracle_test.go) and the two are
// fuzzed against each other. Decoding stops at the root element's end
// tag, as Decoder.Decode does, so nothing after it is read. Before
// that, every byte is checked the way the decoder checks it:
//
//   - element and attribute names must be XML names with at most one
//     colon; they match the struct by local name, so p:name= binds
//     Name, as do xmlns:name= and any other prefix;
//   - end tags must repeat their start tag's qualified name;
//   - attribute values must be quoted; a repeated attribute keeps its
//     last value;
//   - character data and attribute values may hold only XML
//     characters in valid UTF-8, and every & must start one of the
//     five predefined entities or a character reference;
//   - "]]>" may not appear in character data outside CDATA;
//   - comments may not contain "--"; an <?xml ...?> declaration may
//     name only version 1.0 and the UTF-8 encoding;
//   - comments, processing instructions and <!DOCTYPE ...>-style
//     directives are otherwise skipped unchecked.

// tokKind is the kind of one markup token.
type tokKind uint8

const (
	tokEOF   tokKind = iota
	tokText          // character data
	tokCDATA         // a <![CDATA[...]]> section
	tokStart         // a start tag, possibly self-closing
	tokEnd           // an end tag
	tokOther         // a comment, processing instruction or directive
)

// span locates an attribute value or a run of character data in the
// input. dirty marks one that holds references or carriage returns
// and so must be decoded rather than sliced.
type span struct {
	start, end int
	dirty      bool
}

// token is one token; each call of next overwrites it.
type token struct {
	kind  tokKind
	text  span   // tokText, tokCDATA
	name  string // tokStart, tokEnd: the qualified name
	local string // tokStart: the local part of name
	empty bool   // tokStart: the tag closes itself
	// The last name= and type= values of a start tag, by local name;
	// an absent one is the empty span, whose value is "".
	nameVal, typeVal span
}

// scanner holds the input and the read position.
type scanner struct {
	src string
	pos int
	buf []byte // decoding scratch for attribute values
}

// fail returns the error for the byte at offset at, with its 1-based
// line.
func (p *scanner) fail(at int, msg string) error {
	return fmt.Errorf("XML syntax error on line %d: %s", 1+strings.Count(p.src[:at], "\n"), msg)
}

// eof is the error for input that ends inside markup.
func (p *scanner) eof() error { return p.fail(len(p.src), "unexpected EOF") }

// context is what an open element is to xsSchema: the field its
// children go to, or nothing (ctxSkip) when the decoder would skip
// the whole subtree.
type context uint8

const (
	ctxSkip           context = iota
	ctxRoot                   // the document element, xsSchema itself
	ctxRootAnnotation         // annotation child of the root
	ctxRootAppInfo            // annotation>appinfo of the root
	ctxType                   // complexType child of the root
	ctxTypeAnnotation         // annotation of a complexType
	ctxTypeAppInfo            // annotation>appinfo of a complexType
	ctxTypeAll                // all of a complexType
	ctxElement                // an element declaration (children skipped)
)

// child returns the context of an element with local name local
// opened in parent.
func child(parent context, local string) context {
	switch parent {
	case ctxRoot:
		switch local {
		case "annotation":
			return ctxRootAnnotation
		case "element":
			return ctxElement
		case "complexType":
			return ctxType
		}
	case ctxRootAnnotation:
		if local == "appinfo" {
			return ctxRootAppInfo
		}
	case ctxType:
		switch local {
		case "annotation":
			return ctxTypeAnnotation
		case "all":
			return ctxTypeAll
		}
	case ctxTypeAnnotation:
		if local == "appinfo" {
			return ctxTypeAppInfo
		}
	case ctxTypeAll:
		if local == "element" {
			return ctxElement
		}
	}
	return ctxSkip
}

// frame is one open element.
type frame struct {
	name string // qualified name its end tag must repeat
	ctx  context
}

// appInfoText joins the character data of one appinfo element. A
// single clean piece — the common case — stays a substring of the
// input.
type appInfoText struct {
	s     string
	buf   []byte
	inBuf bool // the text so far is buf, not s
}

func (a *appInfoText) reset() { a.s, a.buf, a.inBuf = "", a.buf[:0], false }

func (a *appInfoText) add(src string, t span, refs bool) {
	if !a.inBuf && a.s == "" && !t.dirty {
		a.s = src[t.start:t.end]
		return
	}
	if !a.inBuf {
		a.buf, a.inBuf = append(a.buf[:0], a.s...), true
	}
	a.buf = decode(a.buf, src[t.start:t.end], refs)
}

func (a *appInfoText) String() string {
	if a.inBuf {
		return string(a.buf)
	}
	return a.s
}

// scanSchema decodes src into s.
func scanSchema(src string, s *xsSchema) error {
	p := scanner{src: src}
	var t token
	// Before the root: text is checked, markup other than tags
	// skipped.
	for {
		if err := p.next(&t); err != nil {
			return err
		}
		switch t.kind {
		case tokEOF:
			return p.fail(p.pos, "no root element")
		case tokEnd:
			return p.fail(p.pos, "unexpected end element </"+t.name+">")
		}
		if t.kind == tokStart {
			break
		}
	}
	if t.empty {
		return nil
	}
	f := filler{p: &p, s: s}
	var stackBuf [8]frame
	stack := append(stackBuf[:0], frame{name: t.name, ctx: ctxRoot})
	for len(stack) > 0 {
		if err := p.next(&t); err != nil {
			return err
		}
		parent := stack[len(stack)-1].ctx
		switch t.kind {
		case tokEOF:
			return p.eof()
		case tokText, tokCDATA:
			if parent == ctxRootAppInfo || parent == ctxTypeAppInfo {
				f.info.add(src, t.text, t.kind == tokText)
			}
		case tokStart:
			c := child(parent, t.local)
			f.open(c, parent, &t)
			if t.empty {
				f.close(c)
			} else {
				stack = append(stack, frame{name: t.name, ctx: c})
			}
		case tokEnd:
			top := stack[len(stack)-1]
			if t.name != top.name {
				return p.fail(p.pos, "element <"+top.name+"> closed by </"+t.name+">")
			}
			f.close(top.ctx)
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// filler builds the xsSchema from the elements the scanner opens and
// closes. The elements and the appinfos of all complexTypes share one
// backing slice each: a complexType's own run in it is contiguous, and
// becomes its field when it closes.
type filler struct {
	p                  *scanner
	s                  *xsSchema
	elems              []xsElement
	infos              []string
	elemMark, infoMark int // where the open complexType's runs start
	info               appInfoText
}

// open starts an element of context c, whose start tag is t, under
// parent.
func (f *filler) open(c, parent context, t *token) {
	switch c {
	case ctxElement:
		e := xsElement{Name: f.p.value(t.nameVal), Type: f.p.value(t.typeVal)}
		if parent == ctxRoot {
			f.s.Elements = append(f.s.Elements, e)
		} else {
			f.elems = append(f.elems, e)
		}
	case ctxType:
		ct := xsComplexType{Name: f.p.value(t.nameVal)}
		if f.s.ComplexTypes == nil {
			// Size for the complexTypes still to come: each has a
			// start and an end tag in a generated scheme.
			n := 1 + strings.Count(f.p.src[f.p.pos:], "complexType")/2
			f.s.ComplexTypes = make([]xsComplexType, 0, n)
		}
		f.s.ComplexTypes = append(f.s.ComplexTypes, ct)
		f.elemMark, f.infoMark = len(f.elems), len(f.infos)
	case ctxRootAppInfo, ctxTypeAppInfo:
		f.info.reset()
	}
}

// close finishes an element of context c: an appinfo's text joins its
// list, and a complexType takes its runs of the shared slices.
func (f *filler) close(c context) {
	switch c {
	case ctxRootAppInfo:
		f.s.AppInfos = append(f.s.AppInfos, f.info.String())
	case ctxTypeAppInfo:
		f.infos = append(f.infos, f.info.String())
	case ctxType:
		ct := &f.s.ComplexTypes[len(f.s.ComplexTypes)-1]
		if n := len(f.elems); n > f.elemMark {
			ct.Elements = f.elems[f.elemMark:n:n]
		}
		if n := len(f.infos); n > f.infoMark {
			ct.AppInfos = f.infos[f.infoMark:n:n]
		}
	}
}

// value returns the decoded text of an attribute value.
func (p *scanner) value(v span) string {
	if !v.dirty {
		return p.src[v.start:v.end]
	}
	p.buf = decode(p.buf[:0], p.src[v.start:v.end], true)
	return string(p.buf)
}

// next scans the token at p.pos into t.
func (p *scanner) next(t *token) error {
	src := p.src
	if p.pos >= len(src) {
		t.kind = tokEOF
		return nil
	}
	if src[p.pos] != '<' {
		end, dirty, err := p.chars(p.pos, len(src), inText, 0)
		if err != nil {
			return err
		}
		t.kind, t.text = tokText, span{p.pos, end, dirty}
		p.pos = end
		return nil
	}
	i := p.pos + 1
	if i >= len(src) {
		return p.eof()
	}
	switch src[i] {
	case '/':
		return p.endTag(t, i+1)
	case '?':
		t.kind = tokOther
		return p.procInst(i + 1)
	case '!':
		return p.bang(t, i+1)
	}
	return p.startTag(t, i)
}

// startTag scans a start tag whose name begins at i.
func (p *scanner) startTag(t *token, i int) error {
	src := p.src
	end, local, err := p.qname(i, "expected element name after <")
	if err != nil {
		return err
	}
	t.kind, t.name, t.local = tokStart, src[i:end], local
	t.nameVal, t.typeVal = span{}, span{}
	i = end
	for {
		i = skipSpace(src, i)
		if i >= len(src) {
			return p.eof()
		}
		switch src[i] {
		case '/':
			if i+1 >= len(src) {
				return p.eof()
			}
			if src[i+1] != '>' {
				return p.fail(i+1, "expected /> in element")
			}
			t.empty = true
			p.pos = i + 2
			return nil
		case '>':
			t.empty = false
			p.pos = i + 1
			return nil
		}
		aEnd, aLocal, err := p.qname(i, "expected attribute name in element")
		if err != nil {
			return err
		}
		i = skipSpace(src, aEnd)
		if i >= len(src) {
			return p.eof()
		}
		if src[i] != '=' {
			return p.fail(i, "attribute name without = in element")
		}
		i = skipSpace(src, i+1)
		if i >= len(src) {
			return p.eof()
		}
		if q := src[i]; q != '"' && q != '\'' {
			return p.fail(i, "unquoted or missing attribute value in element")
		}
		vEnd, dirty, err := p.chars(i+1, len(src), inValue, src[i])
		if err != nil {
			return err
		}
		switch aLocal {
		case "name":
			t.nameVal = span{i + 1, vEnd, dirty}
		case "type":
			t.typeVal = span{i + 1, vEnd, dirty}
		}
		i = vEnd + 1
	}
}

// endTag scans an end tag whose name begins at i.
func (p *scanner) endTag(t *token, i int) error {
	src := p.src
	end, _, err := p.qname(i, "expected element name after </")
	if err != nil {
		return err
	}
	t.kind, t.name = tokEnd, src[i:end]
	j := skipSpace(src, end)
	if j >= len(src) {
		return p.eof()
	}
	if src[j] != '>' {
		return p.fail(j, "invalid characters between </"+t.name+" and >")
	}
	p.pos = j + 1
	return nil
}

// procInst skips a processing instruction whose target begins at i,
// checking an XML declaration's version and encoding.
func (p *scanner) procInst(i int) error {
	src := p.src
	end, _, _, err := p.name(i, "expected target name after <?")
	if err != nil {
		return err
	}
	target := src[i:end]
	j := skipSpace(src, end)
	k := strings.Index(src[j:], "?>")
	if k < 0 {
		return p.eof()
	}
	if target == "xml" {
		content := src[j : j+k]
		if ver := pseudoAttr(content, "version="); ver != "" && ver != "1.0" {
			return p.fail(j, "unsupported version "+strconv.Quote(ver)+"; only version 1.0 is supported")
		}
		if enc := pseudoAttr(content, "encoding="); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return p.fail(j, "unsupported encoding "+strconv.Quote(enc)+"; only UTF-8 is supported")
		}
	}
	p.pos = j + k + 2
	return nil
}

// pseudoAttr returns the quoted value of param (which ends in '=') in
// a processing instruction's content, or "" when there is none. It
// reads the content exactly as encoding/xml does: the first
// occurrence of param followed by a quote.
func pseudoAttr(s, param string) string {
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang scans the markup after "<!" at i: a comment, a CDATA section
// or a directive.
func (p *scanner) bang(t *token, i int) error {
	src := p.src
	if i >= len(src) {
		return p.eof()
	}
	t.kind = tokOther
	switch src[i] {
	case '-':
		if i+1 >= len(src) {
			return p.eof()
		}
		if src[i+1] != '-' {
			return p.fail(i+1, "invalid sequence <!- not part of <!--")
		}
		j := i + 2
		k := strings.Index(src[j:], "--")
		if k < 0 || j+k+2 >= len(src) {
			return p.eof()
		}
		if src[j+k+2] != '>' {
			return p.fail(j+k+2, `invalid sequence "--" not allowed in comments`)
		}
		p.pos = j + k + 3
		return nil
	case '[':
		const open = "CDATA["
		for n := 0; n < len(open); n++ {
			if i+1+n >= len(src) {
				return p.eof()
			}
			if src[i+1+n] != open[n] {
				return p.fail(i+1+n, "invalid <![ sequence")
			}
		}
		j := i + 1 + len(open)
		k := strings.Index(src[j:], "]]>")
		if k < 0 {
			return p.fail(len(src), "unexpected EOF in CDATA section")
		}
		_, dirty, err := p.chars(j, j+k, inCDATA, 0)
		if err != nil {
			return err
		}
		t.kind, t.text = tokCDATA, span{j, j + k, dirty}
		p.pos = j + k + 3
		return nil
	}
	return p.directive(i + 1)
}

// directive skips a <!DOCTYPE ...>-style directive whose body resumes
// at i (the byte after "<!" is part of it but never examined, as in
// encoding/xml). Angle brackets nest outside quotes, and <!-- -->
// comments inside are skipped.
func (p *scanner) directive(i int) error {
	src := p.src
	var inquote byte
	depth := 0
	for {
		if i >= len(src) {
			return p.eof()
		}
		b := src[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			p.pos = i
			return nil
		}
		// A '<' that does not open a comment is handled here and its
		// following byte re-examined by this same switch, without
		// the end test above.
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			const open = "!--"
			for n := 0; n < len(open); n++ {
				if i >= len(src) {
					return p.eof()
				}
				b = src[i]
				i++
				if b != open[n] {
					depth++
					goto handle
				}
			}
			k := strings.Index(src[i:], "-->")
			if k < 0 {
				return p.eof()
			}
			i += k + 3
		}
	}
}

// name returns the end of the XML name at i: the longest run of
// ASCII name bytes and non-ASCII bytes, which must then form a valid
// name. An empty run fails with msg. colon is the offset of the run's
// first colon, or -1; colons counts them.
func (p *scanner) name(i int, msg string) (end, colon, colons int, err error) {
	src := p.src
	j, high := i, false
	colon = -1
	for ; j < len(src); j++ {
		c := src[j]
		if !nameByte[c] {
			break
		}
		switch {
		case c == ':':
			if colons++; colon < 0 {
				colon = j
			}
		case c >= utf8.RuneSelf:
			high = true
		}
	}
	if j >= len(src) {
		return 0, 0, 0, p.eof()
	}
	if j == i {
		return 0, 0, 0, p.fail(i, msg)
	}
	if c := src[i]; !high && !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':') ||
		high && !isName(src[i:j]) {
		return 0, 0, 0, p.fail(i, "invalid XML name: "+src[i:j])
	}
	return j, colon, colons, nil
}

// qname scans a qualified name (element or attribute) at i: a name
// with at most one colon. Its local part is the text after the colon
// when there is text on both sides, else the whole name.
func (p *scanner) qname(i int, msg string) (end int, local string, err error) {
	end, colon, colons, err := p.name(i, msg)
	if err != nil {
		return 0, "", err
	}
	if colons > 1 {
		return 0, "", p.fail(i, msg)
	}
	if colon > i && colon < end-1 {
		return end, p.src[colon+1 : end], nil
	}
	return end, p.src[i:end], nil
}

// nameByte marks the bytes a name run takes in: ASCII name bytes and
// every non-ASCII byte (the name is checked as UTF-8 afterwards).
var nameByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
	}
	return t
}()

// isName reports whether s is a name: a name-start character and then
// name characters, all valid UTF-8. ASCII bytes come only from the
// name-byte run, so past the first they are all name characters.
func isName(s string) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if i == 0 && !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':') {
				return false
			}
			i++
			continue
		}
		c, n := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && n == 1 {
			return false
		}
		if !unicode.Is(nameStart, c) && (i == 0 || !unicode.Is(nameChar, c)) {
			return false
		}
		i += n
	}
	return true
}

func skipSpace(src string, i int) int {
	for i < len(src) {
		switch src[i] {
		case ' ', '\r', '\n', '\t':
			i++
		default:
			return i
		}
	}
	return i
}

// isChar reports whether r is in the XML Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// plain classes the ASCII bytes that need no second look: XML
// characters that end nothing and start nothing where they stand.
var plain = func() (t [256]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		if c < 0x20 && c != '\t' && c != '\n' {
			continue
		}
		t[c] = inCDATA
		if c != '<' && c != '&' && c != '>' {
			t[c] |= inText
		}
		if c != '<' && c != '&' && c != '"' && c != '\'' {
			t[c] |= inValue
		}
	}
	return t
}()

const (
	inText  = 1 << iota // character data
	inValue             // an attribute value
	inCDATA             // a CDATA section
)

// charLen returns the length of the valid multi-byte XML character at
// src[i], or 0 when the bytes there are not one.
func charLen(src string, i int) int {
	r, n := utf8.DecodeRuneInString(src[i:])
	if r == utf8.RuneError && n == 1 || !isChar(r) {
		return 0
	}
	return n
}

// chars checks the characters from i up to limit in one of three
// settings (class): character data, which ends at the next '<' or at
// limit; an attribute value, which ends at its closing quote; a CDATA
// body, which is exactly src[i:limit]. It returns where the run ends
// and whether it holds references or carriage returns to decode.
func (p *scanner) chars(i, limit int, class uint8, quote byte) (end int, dirty bool, err error) {
	src := p.src[:limit]
	start := i
	for i < len(src) {
		b := src[i]
		if plain[b]&class != 0 {
			i++
			continue
		}
		if b >= utf8.RuneSelf {
			n := charLen(src, i)
			if n == 0 {
				return 0, false, p.badChar(i)
			}
			i += n
			continue
		}
		switch {
		case class == inValue && b == quote:
			return i, dirty, nil
		case b == '<' && class == inValue:
			return 0, false, p.fail(i, "unescaped < inside quoted string")
		case b == '<':
			return i, dirty, nil
		case b == '&':
			n, _ := reference(src, i)
			if n == 0 {
				return 0, false, p.fail(i, "invalid character entity")
			}
			i += n
			dirty = true
			continue
		case b == '>':
			if i-start >= 2 && src[i-1] == ']' && src[i-2] == ']' {
				return 0, false, p.fail(i, "unescaped ]]> not in CDATA section")
			}
		case b == '\r':
			dirty = true
		case b < 0x20 && b != '\t' && b != '\n':
			return 0, false, p.badChar(i)
		}
		i++
	}
	if class == inValue {
		return 0, false, p.eof()
	}
	return i, dirty, nil
}

func (p *scanner) badChar(i int) error {
	r, n := utf8.DecodeRuneInString(p.src[i:])
	if r == utf8.RuneError && n == 1 {
		return p.fail(i, "invalid UTF-8")
	}
	return p.fail(i, "illegal character code "+strconv.QuoteRune(r))
}

// reference decodes the reference at src[i] ('&'): one of the five
// predefined entities, or a decimal (&#NN;) or hexadecimal (&#xNN;)
// character reference to an XML character. It returns the
// reference's length and its character, or 0 when it is not a valid
// reference. As in encoding/xml, a reference to a surrogate stands
// for U+FFFD.
func reference(src string, i int) (int, rune) {
	j := i + 1
	if j < len(src) && src[j] == '#' {
		j++
		base := uint64(10)
		if j < len(src) && src[j] == 'x' {
			base = 16
			j++
		}
		digits := j
		var v uint64
		for ; j < len(src); j++ {
			d := digitValue(src[j], base)
			if d < 0 {
				break
			}
			// Saturate just past the largest rune: more digits
			// cannot bring the value back into range.
			if v = v*base + uint64(d); v > unicode.MaxRune {
				v = unicode.MaxRune + 1
			}
		}
		if j >= len(src) || src[j] != ';' || j == digits || v > unicode.MaxRune {
			return 0, 0
		}
		r := rune(v)
		if 0xD800 <= r && r <= 0xDFFF {
			r = utf8.RuneError
		}
		if !isChar(r) {
			return 0, 0
		}
		return j + 1 - i, r
	}
	k := j
	for k < len(src) && nameByte[src[k]] {
		k++
	}
	if k >= len(src) || src[k] != ';' {
		return 0, 0
	}
	var r rune
	switch src[j:k] {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return 0, 0
	}
	return k + 1 - i, r
}

// digitValue returns the value of digit b in base 10 or 16, or -1.
func digitValue(b byte, base uint64) int {
	switch {
	case '0' <= b && b <= '9':
		return int(b - '0')
	case base == 16 && 'a' <= b && b <= 'f':
		return int(b-'a') + 10
	case base == 16 && 'A' <= b && b <= 'F':
		return int(b-'A') + 10
	}
	return -1
}

// decode appends the text of s, already checked, to dst: references
// resolved when refs is set (character data and attribute values, not
// CDATA), and "\r\n" and lone "\r" turned into "\n".
func decode(dst []byte, s string, refs bool) []byte {
	for i := 0; i < len(s); {
		switch b := s[i]; {
		case b == '&' && refs:
			n, r := reference(s, i)
			dst = utf8.AppendRune(dst, r)
			i += n
		case b == '\r':
			dst = append(dst, '\n')
			i++
			if i < len(s) && s[i] == '\n' {
				i++
			}
		default:
			dst = append(dst, b)
			i++
		}
	}
	return dst
}
