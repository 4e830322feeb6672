package govcheck

import (
	"testing"

	"github.com/mural-db/mural/internal/lint/analysistest"
)

func TestHotMetric(t *testing.T) {
	analysistest.Run(t, HotMetric, "../testdata/src/hotmetric")
}
