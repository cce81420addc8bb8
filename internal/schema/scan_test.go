package schema

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestScannerQuirks pins the scanner's reading of the inputs on the
// edges of the language, and checks each against the oracle.
func TestScannerQuirks(t *testing.T) {
	accept := map[string]*xsSchema{
		`junk<a/>trailing<<<`: {},
		`<a/></b>`:            {},
		`<!DOCTYPE x [<!ENTITY e "<>"> <!-- c -->]><?pi data?><!-- c --><a/>`: {},
		`<s><element p:name="x" q:type="T"/></s>`:                             {Elements: []xsElement{{Name: "x", Type: "T"}}},
		`<s><element xmlns:name="x" name="y" name="z"/></s>`:                  {Elements: []xsElement{{Name: "z"}}},
		`<s><complexType name="T"><annotation><appinfo>k=<!-- c -->1<b>zz</b><![CDATA[2]]>&amp;</appinfo></annotation></complexType></s>`: {
			ComplexTypes: []xsComplexType{{Name: "T", AppInfos: []string{"k=12&"}}},
		},
		`<s><annotation><appinfo>a&#65;&#x42;&lt;&gt;&quot;&apos;</appinfo><appinfo/></annotation></s>`: {
			AppInfos: []string{`aAB<>"'`, ""},
		},
		"<s><annotation><appinfo>a\r\nb\rc</appinfo></annotation></s>": {AppInfos: []string{"a\nb\nc"}},
		`<s><annotation><appinfo>&#xD800;</appinfo></annotation></s>`:  {AppInfos: []string{"\uFFFD"}},
	}
	for doc, want := range accept {
		got, err := parseSchema([]byte(doc))
		if err != nil {
			t.Errorf("%q: %v", doc, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\n got %+v\nwant %+v", doc, *got, *want)
		}
	}
	reject := []string{
		``,
		`<s><element name=x/></s>`,
		`<s></t>`,
		`<x:s></y:s>`,
		`<s><annotation><appinfo>&bogus;</appinfo></annotation></s>`,
		"<s>\x00</s>",
		"<s>\xff</s>",
		`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
		`<s><!-- a -- b --></s>`,
		`<s><a:b:c/></s>`,
	}
	for _, doc := range reject {
		if _, err := parseSchema([]byte(doc)); err == nil {
			t.Errorf("%q: accepted", doc)
		}
	}
	for _, doc := range quirks {
		if d := differential([]byte(doc)); d != "" {
			t.Errorf("%q: %s", doc, d)
		}
	}
}

// fragments are the pieces TestScannerMatchesOracleOnFragments builds
// documents from: markup, references, line ends and bytes that sit on
// the edges of the language.
var fragments = []string{
	"<s>", "</s>", "<xs:schema>", "</xs:schema>", "<s/>",
	"<annotation>", "</annotation>", "<xs:annotation>", "</xs:annotation>",
	"<appinfo>", "</appinfo>", "<xs:appinfo>", "</xs:appinfo>", "<appinfo/>",
	"<complexType name='T'>", "</complexType>", "<xs:complexType name=\"U\">", "</xs:complexType>",
	"<all>", "</all>", "<xs:all>", "</xs:all>",
	`<element name="a" type="B"/>`, `<xs:element p:type='t' name="&amp;x"/>`, "<element>", "</element>",
	"<b>", "</b>", "<b/>",
	"k=1", "zz", " ", "\t", "\n", "\r", "\r\n", "=", ":", "/", "/>", ">", "<", "'", `"`,
	"&amp;", "&lt;", "&#65;", "&#x41;", "&#x;", "&#;", "&#0;", "&#xD800;", "&#1114111;", "&#1114112;", "&nope;", "&", ";",
	"]]>", "]]", "]", "<![CDATA[", "<![CDATA[x]]>", "<![CDAT", "<!--", "-->", "--", "<!-- c -->",
	"<?xml version=\"1.0\"?>", "<?xml encoding='latin1'?>", "<?pi x?>", "<?", "?>",
	"<!DOCTYPE d [<!-- x --> <e '>'>]>", "<!DOCTYPE", "<!x>", "<!",
	"é", "\xff", "\x00", "\uFFFE", "\u00B7", "a:b:c", "<a:b:c>",
}

// tree writes a random element of the shapes xsSchema reads, nested
// up to depth levels, with a fragment spliced in now and then so that
// near-valid documents get tested too.
func tree(rng *rand.Rand, b *strings.Builder, depth int) {
	names := []string{"schema", "annotation", "appinfo", "complexType", "all", "element", "b"}
	prefixes := []string{"", "", "xs:", "p:", ":"}
	name := prefixes[rng.Intn(len(prefixes))] + names[rng.Intn(len(names))]
	b.WriteString("<" + name)
	attrs := []string{"name", "type", "p:name", "xmlns:name", "other", "xmlns:p"}
	values := []string{"", "P0", "a&amp;b", "&#80;&#x30;", "x\r\ny", "Seg'1", `q"`, "é", "&lt;&gt;"}
	for k := rng.Intn(4); k > 0; k-- {
		v := values[rng.Intn(len(values))]
		q := `"`
		if strings.Contains(v, `"`) || (!strings.Contains(v, "'") && rng.Intn(2) == 0) {
			q = "'"
		}
		b.WriteString(" " + attrs[rng.Intn(len(attrs))] + " = " + q + v + q)
	}
	if depth == 0 || rng.Intn(4) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteString(">")
	texts := []string{"k=1", " ", "\n  ", "&amp;", "&#61;", "<![CDATA[v<2]]>", "<!-- c -->", "<?pi x?>", "\r\n", "]]", "é"}
	for k := rng.Intn(5); k > 0; k-- {
		switch r := rng.Intn(10); {
		case r < 5:
			tree(rng, b, depth-1)
		case r < 9:
			b.WriteString(texts[rng.Intn(len(texts))])
		default:
			b.WriteString(fragments[rng.Intn(len(fragments))])
		}
	}
	b.WriteString("</" + name + " >")
}

// TestScannerMatchesOracleOnFragments runs the differential on
// documents assembled at random — from loose fragments, and as trees
// of the shapes xsSchema reads — which reach deeper into the grammar
// than byte-level mutation does.
func TestScannerMatchesOracleOnFragments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 40000
	if testing.Short() {
		n = 4000
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.Reset()
		if i%2 == 0 {
			for k := 1 + rng.Intn(24); k > 0; k-- {
				b.WriteString(fragments[rng.Intn(len(fragments))])
			}
		} else {
			if rng.Intn(3) == 0 {
				b.WriteString(fragments[rng.Intn(len(fragments))])
			}
			tree(rng, &b, 4)
		}
		doc := b.String()
		if d := differential([]byte(doc)); d != "" {
			t.Fatalf("%q: %s", doc, d)
		}
	}
}

// TestDeepNesting: 100 000 nested elements take one linear pass with
// no recursion — the goroutine stack does not grow with the depth —
// and the scanner agrees with the oracle on them, closed or not.
func TestDeepNesting(t *testing.T) {
	const depth = 100000
	open := strings.Repeat("<a>", depth)
	closed := open + strings.Repeat("</a>", depth)
	for _, doc := range []string{closed, open, "<s><element name='x'/>" + closed + "</s>"} {
		var before, after runtime.MemStats
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			runtime.ReadMemStats(&before)
			_, err = parseSchema([]byte(doc))
			runtime.ReadMemStats(&after)
		}()
		<-done
		if grown := int64(after.StackInuse) - int64(before.StackInuse); grown > 256<<10 {
			t.Errorf("stacks grew by %d bytes over a %d-deep parse", grown, depth)
		}
		if _, werr := oracleParseSchema([]byte(doc)); (err == nil) != (werr == nil) {
			t.Errorf("scanner error %v, oracle error %v", err, werr)
		}
	}
}
