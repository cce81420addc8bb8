package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestEstimateHostileSchemes serves schemes built to hurt a parser:
// deep nesting, markup left open at the end of the input, a megabyte
// attribute value, NUL bytes and invalid UTF-8. Each must come back as
// a coded 400 SB901 — no panic, no hang (each request gets a generous
// deadline; the parse is one linear pass and should take milliseconds).
func TestEstimateHostileSchemes(t *testing.T) {
	psdfXML, psmXML := goldenSchemes(t)
	const depth = 100000
	nested := strings.Repeat("<a>", depth)
	closed := nested + strings.Repeat("</a>", depth)
	// Everything up to the App complexType's first process element.
	head := psdfXML[:strings.Index(psdfXML, `<xs:element name="p0"`)]
	cases := []struct {
		name string
		body []byte
	}{
		{"100000 nested elements", body(t, EstimateRequest{PSDF: closed, PSM: psmXML})},
		{"100000 nested elements, never closed", body(t, EstimateRequest{PSDF: psdfXML, PSM: nested})},
		{"unterminated comment", body(t, EstimateRequest{PSDF: head + "<!-- never closed", PSM: psmXML})},
		{"unterminated CDATA", body(t, EstimateRequest{PSDF: psdfXML, PSM: strings.Replace(psmXML, "caClockHz=", "<![CDATA[caClockHz=", 1)[:3000]})},
		{"unterminated attribute", body(t, EstimateRequest{PSDF: head + `<xs:element name="p0" type="P0`, PSM: psmXML})},
		{"megabyte attribute value", body(t, EstimateRequest{
			PSDF: head + `<xs:element name="p0" type="` + strings.Repeat("P", 1<<20) + `"/>` + psdfXML[len(head):],
			PSM:  psmXML,
		})},
		{"NUL bytes", body(t, EstimateRequest{PSDF: strings.Replace(psdfXML, "nominalPackageSize", "nominal\x00PackageSize", 1), PSM: psmXML})},
		{"NUL in a name", body(t, EstimateRequest{PSDF: psdfXML, PSM: strings.Replace(psmXML, "<xs:all>", "<xs:a\x00ll>", 1)})},
		// JSON cannot carry invalid UTF-8 into a string: the decoder
		// turns each bad byte into U+FFFD, which the scheme must then
		// reject where it lands.
		{"invalid UTF-8 in a name", rawBody(t, strings.Replace(psdfXML, "<xs:complexType", "<xs:complex\xffType", 1), psmXML)},
		{"invalid UTF-8 in appinfo", rawBody(t, psdfXML, strings.Replace(psmXML, "caClockHz=111000000", "caClockHz=111000000\xfe\xff", 1))},
	}
	s := New(Config{Workers: 1, Queue: 2})
	h := s.Handler()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			done := make(chan struct{})
			var code int
			var e ErrorResponse
			go func() {
				defer close(done)
				rec := post(h, c.body)
				code = rec.Code
				_ = json.Unmarshal(rec.Body.Bytes(), &e)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("no answer within 30 s")
			}
			if code != http.StatusBadRequest || e.Code != CodeBadScheme {
				t.Errorf("status %d code %q (%s), want 400 %s", code, e.Code, e.Error, CodeBadScheme)
			}
		})
	}

	// The same depth inside an otherwise valid scheme is an unknown
	// subtree, skipped as a whole: the estimate is the plain one.
	want := post(h, body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML}))
	got := post(h, body(t, EstimateRequest{PSDF: head + closed + psdfXML[len(head):], PSM: psmXML}))
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("deep unknown subtree: status %d, report differs: %v", got.Code, !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()))
	}
}

// rawBody builds an estimate request by hand, so that bytes JSON
// encoding would replace (invalid UTF-8) reach the server as sent.
func rawBody(t *testing.T, psdf, psm string) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(`{"psdf":"`)
	writeRaw(&b, psdf)
	b.WriteString(`","psm":"`)
	writeRaw(&b, psm)
	b.WriteString(`"}`)
	return b.Bytes()
}

// writeRaw writes s as the inside of a JSON string, escaping quotes,
// backslashes and control bytes but passing every other byte through.
func writeRaw(b *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c == '\n':
			b.WriteString(`\n`)
		case c < 0x20:
			b.WriteString(`\u00`)
			b.WriteByte("0123456789abcdef"[c>>4])
			b.WriteByte("0123456789abcdef"[c&15])
		default:
			b.WriteByte(c)
		}
	}
}
