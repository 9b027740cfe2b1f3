module jumpstart/bench

go 1.22

require jumpstart v0.0.0

replace jumpstart => ../
