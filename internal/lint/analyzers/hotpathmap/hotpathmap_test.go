package hotpathmap_test

import (
	"testing"

	"awgsim/internal/lint/analysistest"
	"awgsim/internal/lint/analyzers/hotpathmap"
)

func TestHotPathMap(t *testing.T) {
	analysistest.Run(t, hotpathmap.Analyzer, "syncmon", "cp", "mem", "gpu")
}
