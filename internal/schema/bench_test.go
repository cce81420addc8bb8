package schema

import (
	"testing"

	"segbus/internal/apps"
	"segbus/internal/m2t"
)

// BenchmarkParsePSDF measures the emulator set-up parse of the MP3
// scheme.
func BenchmarkParsePSDF(b *testing.B) {
	data, err := m2t.GeneratePSDF(apps.MP3Model())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePSDF(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePSM measures the platform reconstruction.
func BenchmarkParsePSM(b *testing.B) {
	data, err := m2t.GeneratePSM(apps.MP3Platform3(36))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePSM(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan measures the scanner alone on the MP3 schemes, against
// the encoding/xml oracle it replaced: the layer below ParsePSDF and
// ParsePSM.
func BenchmarkScan(b *testing.B) {
	psdfXML, err := m2t.GeneratePSDF(apps.MP3Model())
	if err != nil {
		b.Fatal(err)
	}
	psmXML, err := m2t.GeneratePSM(apps.MP3Platform3(36))
	if err != nil {
		b.Fatal(err)
	}
	for _, doc := range []struct {
		name string
		data []byte
	}{{"psdf", psdfXML}, {"psm", psmXML}} {
		for _, dec := range []struct {
			name  string
			parse func([]byte) (*xsSchema, error)
		}{{"scanner", parseSchema}, {"encoding-xml", oracleParseSchema}} {
			b.Run(doc.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(doc.data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := dec.parse(doc.data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
