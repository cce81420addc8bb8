package schema

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
)

// oracleParseSchema is the encoding/xml decoder the scanner replaced,
// kept verbatim as the differential oracle: for every input, the
// scanner must return an identical xsSchema, or both must fail.
func oracleParseSchema(data []byte) (*xsSchema, error) {
	var s xsSchema
	dec := xml.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("schema: malformed XML: %w", err)
	}
	return &s, nil
}

// differential decodes data with the scanner and with the oracle and
// describes how they disagree, or returns "" when both fail or both
// return the same struct.
func differential(data []byte) string {
	got, gerr := parseSchema(data)
	want, werr := oracleParseSchema(data)
	switch {
	case gerr != nil && werr != nil:
		return ""
	case gerr != nil:
		return fmt.Sprintf("scanner rejects what encoding/xml accepts: %v\noracle: %+v", gerr, *want)
	case werr != nil:
		return fmt.Sprintf("scanner accepts what encoding/xml rejects: %v\nscanner: %+v", werr, *got)
	case !reflect.DeepEqual(got, want):
		return fmt.Sprintf("structs differ\nscanner: %+v\noracle:  %+v", *got, *want)
	}
	return ""
}
