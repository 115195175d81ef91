package explore

import (
	"testing"

	"kivati/internal/bugs"
)

func BenchmarkEngineSnapshot(b *testing.B) {
	bug, _ := bugs.ByID("NSS", "341323")
	s, _ := BugSubject(bug)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Differential(s, Options{Schedules: 100, Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
