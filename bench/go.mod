module causeway/bench

go 1.22

require causeway v0.0.0

replace causeway => ../
