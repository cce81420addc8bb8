// Package m2t implements the model-to-text transformation of the
// design flow (section 3.4 of the paper): it renders PSDF application
// models and PSM platform models as XML Schema documents with the
// exact element shapes the paper's MagicDraw code-generation engine
// produces — one xs:complexType per platform element or application
// process, flows encoded in element names like "P1_576_1_250", and
// segments composed of buLeft/buRight, process and arbiter elements.
//
// Values the original tool keeps in the modeling environment (clock
// frequencies, protocol tick counts, the nominal package size) are
// embedded as xs:appinfo annotations so that a generated document
// round-trips losslessly through package schema.
package m2t

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// xmlEscape escapes the five XML special characters in text content
// and attribute values. A strings.Replacer is safe for concurrent
// use, so the one built here serves every generation.
var xmlEscape = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
	"'", "&apos;",
).Replace

// builder assembles an indented XML document line by line: begin
// indents, str and num append pieces (num formats an integer in
// decimal, as %d does), and end closes the line — endOpen also indents
// the lines that follow.
type builder struct {
	b      []byte
	indent int
}

func (w *builder) begin() *builder {
	for i := 0; i < w.indent; i++ {
		w.b = append(w.b, "  "...)
	}
	return w
}

func (w *builder) str(s string) *builder {
	w.b = append(w.b, s...)
	return w
}

func (w *builder) num(n int64) *builder {
	w.b = strconv.AppendInt(w.b, n, 10)
	return w
}

// proc appends a process name, "P3", or its element name "p3" when
// lower is set.
func (w *builder) proc(p psdf.ProcessID, lower bool) *builder {
	start := len(w.b)
	w.b = p.AppendName(w.b)
	if lower {
		w.b[start] = 'p'
	}
	return w
}

// bu appends a border unit's name, "BU12", or its element name "bu12"
// when lower is set.
func (w *builder) bu(b platform.BU, lower bool) *builder {
	start := len(w.b)
	w.b = b.AppendName(w.b)
	if lower {
		w.b[start], w.b[start+1] = 'b', 'u'
	}
	return w
}

func (w *builder) end() { w.b = append(w.b, '\n') }

func (w *builder) endOpen() {
	w.end()
	w.indent++
}

// line writes a literal line; open writes one and indents.
func (w *builder) line(s string) { w.begin().str(s).end() }

func (w *builder) open(s string) { w.begin().str(s).endOpen() }

func (w *builder) close(tag string) {
	w.indent--
	w.begin().str("</").str(tag).str(">").end()
}

// typeName derives the complexType name of the whole model from its
// application name: "mp3-decoder" becomes "MP3Decoder"-style camel
// case ("Mp3Decoder"); empty names fall back to "Application".
func typeName(name string) string {
	if name == "" {
		return "Application"
	}
	var out strings.Builder
	up := true
	for _, c := range name {
		switch {
		case c == '-' || c == '_' || c == ' ' || c == '.':
			up = true
		case up:
			out.WriteRune(toUpper(c))
			up = false
		default:
			out.WriteRune(c)
		}
	}
	return out.String()
}

func toUpper(c rune) rune {
	if c >= 'a' && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

// GeneratePSDF renders the PSDF model as an XML Schema document: a
// root element referencing the application complexType, which is
// composed of one element per process; each process complexType lists
// its outgoing transfers as elements whose names encode the flow
// tuples ("P1_576_1_250" — target, data items, ordering, ticks).
func GeneratePSDF(m *psdf.Model) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("m2t: refusing to transform an invalid PSDF model: %w", err)
	}
	procs := m.Processes()
	// Room for the fixed lines and ~2 lines per process and 1 per
	// flow; the document grows past it when it must.
	w := &builder{b: make([]byte, 0, 512+160*len(procs)+64*m.NumFlows())}
	w.line(`<?xml version="1.0" encoding="UTF-8"?>`)
	w.open(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">`)
	if m.NominalPackageSize() > 0 {
		w.open(`<xs:annotation>`)
		w.begin().str(`<xs:appinfo>nominalPackageSize=`).num(int64(m.NominalPackageSize())).str(`</xs:appinfo>`).end()
		w.close("xs:annotation")
	}
	app := typeName(m.Name())
	w.begin().str(`<xs:element name="`).str(xmlEscape(strings.ToLower(app))).str(`" type="`).str(xmlEscape(app)).str(`"/>`).end()
	w.begin().str(`<xs:complexType name="`).str(xmlEscape(app)).str(`">`).endOpen()
	w.open(`<xs:all>`)
	for _, p := range procs {
		w.begin().str(`<xs:element name="`).proc(p, true).str(`" type="`).proc(p, false).str(`"/>`).end()
	}
	w.close("xs:all")
	w.close("xs:complexType")
	for _, p := range procs {
		w.begin().str(`<xs:complexType name="`).proc(p, false).str(`">`).endOpen()
		flows := m.FlowsFrom(p)
		if len(flows) > 0 {
			w.open(`<xs:all>`)
			for _, f := range flows {
				// The flow's encoded name needs no escaping: a process
				// name and three integers.
				w.begin().str(`<xs:element name="`)
				w.b = f.AppendName(w.b)
				w.str(`" type="Transfer"/>`).end()
			}
			w.close("xs:all")
		}
		w.close("xs:complexType")
	}
	w.open(`<xs:complexType name="Transfer">`)
	w.close("xs:complexType")
	w.close("xs:schema")
	return w.b, nil
}

// GeneratePSM renders the platform model (with its application
// mapping) as an XML Schema document following the paper's PSM
// snippet: an "SBP" complexType composed of the segments, the CA and
// the BUs; each segment composed of its buLeft/buRight neighbours,
// its hosted processes and its arbiter; and each process complexType
// carrying its master/slave interface elements (Figure 5 hierarchy).
func GeneratePSM(p *platform.Platform) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("m2t: refusing to transform an invalid platform: %w", err)
	}
	fus := 0
	for _, s := range p.Segments {
		fus += len(s.FUs)
	}
	// Room for the fixed lines, a segment's ~8 lines and an FU's ~6,
	// as in GeneratePSDF.
	w := &builder{b: make([]byte, 0, 1024+512*len(p.Segments)+256*fus)}
	w.line(`<?xml version="1.0" encoding="UTF-8"?>`)
	w.open(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">`)
	w.line(`<xs:element name="sbp" type="SBP"/>`)
	w.open(`<xs:complexType name="SBP">`)
	w.open(`<xs:annotation>`)
	w.begin().str(`<xs:appinfo>caClockHz=`).num(int64(p.CAClock)).str(`</xs:appinfo>`).end()
	w.begin().str(`<xs:appinfo>packageSize=`).num(int64(p.PackageSize)).str(`</xs:appinfo>`).end()
	w.begin().str(`<xs:appinfo>headerTicks=`).num(int64(p.HeaderTicks)).str(`</xs:appinfo>`).end()
	w.begin().str(`<xs:appinfo>caHopTicks=`).num(int64(p.CAHopTicks)).str(`</xs:appinfo>`).end()
	w.close("xs:annotation")
	w.open(`<xs:all>`)
	for _, s := range p.Segments {
		i := int64(s.Index)
		w.begin().str(`<xs:element name="segment`).num(i).str(`" type="Segment`).num(i).str(`"/>`).end()
	}
	w.line(`<xs:element name="ca" type="CA"/>`)
	for _, bu := range p.BUs() {
		w.begin().str(`<xs:element name="`).bu(bu, true).str(`" type="`).bu(bu, false).str(`"/>`).end()
	}
	w.close("xs:all")
	w.close("xs:complexType")

	for _, s := range p.Segments {
		i := int64(s.Index)
		w.begin().str(`<xs:complexType name="Segment`).num(i).str(`">`).endOpen()
		w.open(`<xs:annotation>`)
		w.begin().str(`<xs:appinfo>clockHz=`).num(int64(s.Clock)).str(`</xs:appinfo>`).end()
		w.close("xs:annotation")
		w.open(`<xs:all>`)
		if s.Index > 1 {
			w.begin().str(`<xs:element name="buLeft" type="`).bu(platform.BU{Left: s.Index - 1, Right: s.Index}, false).str(`"/>`).end()
		}
		if s.Index < len(p.Segments) {
			w.begin().str(`<xs:element name="buRight" type="`).bu(platform.BU{Left: s.Index, Right: s.Index + 1}, false).str(`"/>`).end()
		}
		for _, fu := range s.FUs {
			w.begin().str(`<xs:element name="`).proc(fu.Process, true).str(`" type="`).proc(fu.Process, false).str(`"/>`).end()
		}
		w.begin().str(`<xs:element name="arbiter" type="SA`).num(i).str(`"/>`).end()
		w.close("xs:all")
		w.close("xs:complexType")
	}

	// Per-process FU interface declarations (Figure 5: an FU contains
	// at least one master or one slave).
	type fuDecl struct {
		proc psdf.ProcessID
		kind platform.FUKind
	}
	decls := make([]fuDecl, 0, fus)
	for _, s := range p.Segments {
		for _, fu := range s.FUs {
			decls = append(decls, fuDecl{fu.Process, fu.Kind})
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].proc < decls[j].proc })
	for _, fu := range decls {
		w.begin().str(`<xs:complexType name="`).proc(fu.proc, false).str(`">`).endOpen()
		w.open(`<xs:all>`)
		if fu.kind != platform.SlaveOnly {
			w.line(`<xs:element name="master" type="Master"/>`)
		}
		if fu.kind != platform.MasterOnly {
			w.line(`<xs:element name="slave" type="Slave"/>`)
		}
		w.close("xs:all")
		w.close("xs:complexType")
	}

	w.open(`<xs:complexType name="CA">`)
	w.close("xs:complexType")
	for _, s := range p.Segments {
		w.begin().str(`<xs:complexType name="SA`).num(int64(s.Index)).str(`">`).endOpen()
		w.close("xs:complexType")
	}
	for _, bu := range p.BUs() {
		w.begin().str(`<xs:complexType name="`).bu(bu, false).str(`">`).endOpen()
		w.close("xs:complexType")
	}
	w.open(`<xs:complexType name="Master">`)
	w.close("xs:complexType")
	w.open(`<xs:complexType name="Slave">`)
	w.close("xs:complexType")
	w.close("xs:schema")
	return w.b, nil
}
